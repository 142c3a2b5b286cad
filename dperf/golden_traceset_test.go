package dperf_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/dperf"
	"repro/internal/trace"
)

// sha256Hex is the lowercase hex SHA-256 of b.
func sha256Hex(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}

// encodeContainer builds ts's binary container by hand, the way a
// foreign encoder would: the "dpts" header, then for version 1 one
// trace.Folded.WriteBinary blob per rank, and for version 2 one blob
// holding the template trace.Factor recovers from the folded ranks.
func encodeContainer(t testing.TB, ts *dperf.TraceSet, version uint64) []byte {
	t.Helper()
	var b []byte
	b = append(b, "dpts"...)
	b = binary.AppendUvarint(b, version)
	b = binary.AppendUvarint(b, uint64(len(ts.Workload)))
	b = append(b, ts.Workload...)
	b = binary.AppendUvarint(b, uint64(ts.Ranks))
	b = binary.AppendUvarint(b, uint64(ts.Level))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ts.ScatterBytes))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ts.GatherBytes))
	appendBlob := func(write func(*bytes.Buffer) error) {
		var blob bytes.Buffer
		if err := write(&blob); err != nil {
			t.Fatal(err)
		}
		b = binary.AppendUvarint(b, uint64(blob.Len()))
		b = append(b, blob.Bytes()...)
	}
	switch version {
	case 1:
		for _, fd := range ts.Folded() {
			appendBlob(func(w *bytes.Buffer) error { return fd.WriteBinary(w) })
		}
	case 2:
		tpl, err := trace.Factor(ts.Folded())
		if err != nil {
			t.Fatal(err)
		}
		appendBlob(func(w *bytes.Buffer) error { return tpl.WriteTemplate(w) })
	default:
		t.Fatalf("no container version %d", version)
	}
	return b
}

// setDigests returns the SHA-256 of ts's WriteJSON output and of its
// marshalled Stats.
func setDigests(t testing.TB, ts *dperf.TraceSet) (jsonDigest, statsDigest string) {
	t.Helper()
	var js bytes.Buffer
	if err := ts.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	st, err := ts.Stats()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex(js.Bytes()), sha256Hex(stats)
}

// TestGoldenTraceSetDigests pins what a trace set writes and reports
// however it was obtained: the SHA-256 of WriteJSON's output and of
// json.Marshal(Stats()) for smallObstacle at O0–O3 × 1, 2, 8 and 32
// ranks. The generated set and the sets read back from its v1
// container, its v2 container and its JSON document must all produce
// both digests: the containers carry the generated folded ops, and
// trace.Fold recovers the generator's loops from these JSON records.
func TestGoldenTraceSetDigests(t *testing.T) {
	golden := []struct {
		level       dperf.Level
		ranks       int
		json, stats string
	}{
		{dperf.O0, 1, "ac2efda5b0844065005bae096f532f149ffa77945d0b325f33264c6401a1cfa9", "80a48e799eb5a972fe831b41b03b2136a5d8ace2110dfeea9ea88cdd5521a589"},
		{dperf.O0, 2, "75105655d31bd026b8475531598aa5ba9c402f9e84f0880bf26d59c02f5db858", "052a1652afaab6d9e212b015d7f714bcb3d9ff2330c0ce6065034df4eedf6ccb"},
		{dperf.O0, 8, "d4c2f062a7ee7252007e62412afaae1b1a76802f0b52d226620ef5a97dc8f001", "e2f9a43a28e1f36c7b9417276a1a3a2abd6c5d2ed5bb10750a0c4511ee480d01"},
		{dperf.O0, 32, "740e4489b77ad6bdf48e8f8d7f62c940826cb386118e69aa2250c0f8f58d0a7e", "e5008d1b124b9e9f40394c8c44518179bfec2366ad5b62d8fd9d32f46cf23a52"},
		{dperf.O1, 1, "f23df4281d750d2557e378d5e8fa3db111039859572600be11fab82d2dfc7f38", "cd3bfd7986338ba8d56f8f1c511c940e4e61c1a4aa51e58ee74c189d1ae0ab75"},
		{dperf.O1, 2, "3ac44fa3f707d715aff76ea1a9e67fe84293a219dbc23bc9441ecbdef5079546", "f6a714cb7a8c58d78148c1d49fa439f6976647767d21241df9c5eafbf7fd130d"},
		{dperf.O1, 8, "1d3f5b73930794cea5354375d392d3d7a7a28fdc3ad3e222d12f79db4b9e11c7", "2a89bb873aaddb3ab3441d40e9f9dce59e7d337f7d4cd4802ca1a75bec29898a"},
		{dperf.O1, 32, "a1a459168af3723227eb7034ab7f3c00d6a2c8620cd2280e63b88d720e1ba629", "9a5a354b1165aac89630ba8c07acabeacb83c67eb1d10bc14b18c018daf84680"},
		{dperf.O2, 1, "aeac7e4d48790810d62c12eca9491aa25aa6e634b06cf50c4b0caf1574cc6dfc", "c78e5657cc083b2ea00671c0d86f5ab2c8e72ecd084a35602c090079e5e33a32"},
		{dperf.O2, 2, "2c5fa86ec3cdc447a0152b601208ccc607a2466a7839237f3694047c2cb9bd25", "c23bcddb701fd69c0d5fa9382184c7aa2767fed604d382981c3da0009dd42ae9"},
		{dperf.O2, 8, "d6832b8bdf79e502d2edb581209f9dc84750d6b5f836cbd0d12eac60fbc07631", "08f90c6f680596ea69cafcc241d9a2a40f8dbb15e0d8ea98ff24cf3b13e7c54d"},
		{dperf.O2, 32, "f3511a202c1c19570c540aa651917d9f75af6f470c587f0ac015c3907826c8f3", "68c3e338169f3b877ddc03bc567a21dd573cefb12fb06afd6a3e201af2a2a2c1"},
		{dperf.O3, 1, "25f925140652f49e4174655a566083279b3615d3cc2178bdeff3b6b74166d4d3", "c78e5657cc083b2ea00671c0d86f5ab2c8e72ecd084a35602c090079e5e33a32"},
		{dperf.O3, 2, "c66b3d72364408844065881c5edc9bc93df3793ad34fbf4811c4f5bbe74f24b1", "7a2a9b486d14edca9226e3b831363720501f1bf76123178ff2181af250bdf18f"},
		{dperf.O3, 8, "6bf8c902021878e35acfbfc33834959ebed31e02b67d85bb83b037f908016beb", "618a2efc6ba39d8cfad6dd462ef79910178a8ca0f8dc5c280ccf1c743d7af8cc"},
		{dperf.O3, 32, "891af4ed9580df98e00efadf0d1598bf455f8e0152ae7b22768cd620221c615d", "a9b0f18f5fe57719bac39cbb780e4adfdca7288bb87e0d1858330ab1fe48f718"},
	}
	a, err := dperf.New(smallObstacle()).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("%s-r%d", g.level, g.ranks), func(t *testing.T) {
			ts, err := a.Traces(dperf.WithRanks(g.ranks), dperf.WithLevel(g.level))
			if err != nil {
				t.Fatal(err)
			}
			var js bytes.Buffer
			if err := ts.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			check := func(name string, set *dperf.TraceSet) {
				t.Helper()
				gotJSON, gotStats := setDigests(t, set)
				if gotJSON != g.json {
					t.Errorf("%s: WriteJSON digest %s, want %s", name, gotJSON, g.json)
				}
				if gotStats != g.stats {
					t.Errorf("%s: Stats digest %s, want %s", name, gotStats, g.stats)
				}
			}
			check("generated", ts)
			for _, src := range []struct {
				name string
				data []byte
			}{{"v1", encodeContainer(t, ts, 1)}, {"v2", encodeContainer(t, ts, 2)}, {"json", js.Bytes()}} {
				set, err := dperf.ReadTraceSetData(src.name, src.data)
				if err != nil {
					t.Fatalf("%s: %v", src.name, err)
				}
				check(src.name, set)
			}
		})
	}
}
