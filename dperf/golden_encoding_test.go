package dperf_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/dperf"
)

// TestGoldenBinaryEncodings pins the bytes of the binary trace-set
// encodings: the SHA-256 digest of each container for smallObstacle at
// O0–O3 × 1, 2, 8 and 32 ranks. The v2 column is WriteBinary's output;
// the v1 column is the per-rank container as other encoders still
// build it (encodeContainer), which must read back through
// ReadTraceSetData and predict on lan the bytes the generated set
// predicts. Any change to generation, folding, factoring or either
// codec that moves one bit of a stored set fails here.
func TestGoldenBinaryEncodings(t *testing.T) {
	golden := []struct {
		level  dperf.Level
		ranks  int
		v1, v2 string
	}{
		{dperf.O0, 1, "3411c94c80248359f1eb9faacd1f91e77ad45001e8c5fd67cb830071e73e1db5", "b27c0f735a1f149a73f4c1a8340bd1f58f344199fce873572f03b8bccad42fbf"},
		{dperf.O0, 2, "5a05353330d5dbb4e202795971d2f47b917bf5990c3b093002fd0a2d9f8c6116", "b05aae6753b59c32c548fc4569d81387e6e61e65969d983331d13164823ee55f"},
		{dperf.O0, 8, "2d0122421638549354254946c0f387c171e47391fae6a7f43142f44aa7b34e7e", "50b7daa6b2499834d8ccdca2c916a7d313de153fef17ce08f1e3bf767e386542"},
		{dperf.O0, 32, "e2c403cabd1a1943f377d609257a4d45de2d442cdbeb3c15c85e50a62104b49c", "8b799a9f078576cf3e42725ed91db61fc93678bf2e7bea422765c8f5710a3d01"},
		{dperf.O1, 1, "b5a9a287e676dfdfc81cda7b7c2fdd4f57a76e62d467539c2bf8de0661dd758f", "701cb5f4d9ea30af23438112175906cca5aa4f3606348cd679526e9a96c31205"},
		{dperf.O1, 2, "df930941c0d34e621217b0b8b1564d8f3b76e6ad46a90a965644a6c54ac05f61", "2d87a24f7c3459606356a2bf5b10ac2e795ee280ec28315a9f9294a1128e5bd7"},
		{dperf.O1, 8, "3f21c658434027d337c120f7875791b8877bf7b5f4c7252198251fd512c26f00", "bf3653465e2f9141245081ceef811b0a3b25a79140ce9140e033cb8205ffa111"},
		{dperf.O1, 32, "9fc0924a80aefe932c58fb861abf34b0cadefc0ec44d194215b2ed3379a04800", "3866d2a253cf393ad380a6cb2c6523ca180d0ee6cd9150ab51a7d841cf8ef988"},
		{dperf.O2, 1, "9fe3492ec1b6a0114a1377488722a31a6a1e1582878a03ab9410d84b4499fd7a", "c3615ac69c5d47419cec2e402c2a5ea410b6eb231a824ef90ad396102c68e928"},
		{dperf.O2, 2, "0b33315f869da0d34b8f80fc92a8b24eedd202724041c724b8f427e8ef66c48a", "6151cceef14c8b6c4b14beae24c63ee6d5d5a037ae3c5870b645792504f26417"},
		{dperf.O2, 8, "ce6b00d3a04a056cb822f6a0e9eb255ed9efe00abfdd2f8f5bdb617e2c69a77c", "60bf3fd6b49d45e4c781258524563337854a3ed050b9d9418b0ce75b33d506be"},
		{dperf.O2, 32, "0d4bda62e07058939aa67f11210a3b179c88cc8098d966e0ef60ed414ed1559b", "bc12d020e8e91b9c96e98ba61c6aa5d1f84341a2fa7a992e197e1009fca05b15"},
		{dperf.O3, 1, "eb15ff12e7dfa2dfff366bf4a985ce58cb2665001ebe9737cdbfc3d2fc236e45", "adfa2ae4119a41dcab911e22fcf501ed97d6c47185a1ce828c10c3969c134f25"},
		{dperf.O3, 2, "9158db561261d1c936c46701bbcbc49a4a6890b7c809afd0c864e21f23f5bae9", "afd7e81cd11dbeae46b7866cb5b7dc34acc0d16700761681ea6143b7f767cd12"},
		{dperf.O3, 8, "e60b3b9f6bbade13b59307d04f70a12b04ec48145da876fb35482fc7f49f24b4", "c55b235e50d21debebb888e5fb3387b434f4758f58a1c14528c5d5be822c50d5"},
		{dperf.O3, 32, "e9c053ed48a28c0484b2c11992105c67bbd27f922fe85958c892e85908a5917e", "c6393f005c84917f90d894f66f863e2c70145e86f1b55ffe363084427241b212"},
	}
	a, err := dperf.New(smallObstacle()).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	predictLAN := func(ts *dperf.TraceSet) []byte {
		t.Helper()
		pred, err := ts.Predict(dperf.WithPlatform(dperf.KindLAN))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pred.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("%s-r%d", g.level, g.ranks), func(t *testing.T) {
			ts, err := a.Traces(dperf.WithRanks(g.ranks), dperf.WithLevel(g.level))
			if err != nil {
				t.Fatal(err)
			}
			var v2 bytes.Buffer
			if err := ts.WriteBinary(&v2); err != nil {
				t.Fatal(err)
			}
			v1 := encodeContainer(t, ts, 1)
			if got := sha256Hex(v1); got != g.v1 {
				t.Errorf("v1 encoding digest %s, want %s", got, g.v1)
			}
			if got := sha256Hex(v2.Bytes()); got != g.v2 {
				t.Errorf("v2 encoding digest %s, want %s", got, g.v2)
			}
			if !bytes.Equal(v2.Bytes(), encodeContainer(t, ts, 2)) {
				t.Error("WriteBinary differs from the hand-built v2 container")
			}
			fromV1, err := dperf.ReadTraceSetData("v1", v1)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := predictLAN(fromV1), predictLAN(ts); !bytes.Equal(got, want) {
				t.Errorf("v1 container predicted on lan\n%s\nwant the generated set's\n%s", got, want)
			}
		})
	}
}
