package dperf_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/dperf"
)

// setOutputs renders everything a shared set serves: its JSON and
// binary encodings, its marshalled Stats and its lan prediction.
func setOutputs(ts *dperf.TraceSet) ([4][]byte, error) {
	var out [4][]byte
	var js, bin, pred bytes.Buffer
	if err := ts.WriteJSON(&js); err != nil {
		return out, err
	}
	if err := ts.WriteBinary(&bin); err != nil {
		return out, err
	}
	st, err := ts.Stats()
	if err != nil {
		return out, err
	}
	stats, err := json.Marshal(st)
	if err != nil {
		return out, err
	}
	p, err := ts.Predict(dperf.WithPlatform(dperf.KindLAN))
	if err != nil {
		return out, err
	}
	if err := p.WriteJSON(&pred); err != nil {
		return out, err
	}
	return [4][]byte{js.Bytes(), bin.Bytes(), stats, pred.Bytes()}, nil
}

// TestTraceSetIsAValue: no TraceSet method writes to the set. A set
// read from its v1 bytes is shared by 8 goroutines with no setup call,
// each running WriteJSON, WriteBinary, Stats and Predict, and each
// must produce a serial run's bytes; under -race the detector checks
// that none of them writes. WriteBinary's bytes depend on the set
// alone: not on what ran before it, nor on the container the set was
// read from.
func TestTraceSetIsAValue(t *testing.T) {
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(4), dperf.WithLevel(dperf.O1)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodeContainer(t, ts, 1)
	read := func(name string, data []byte) *dperf.TraceSet {
		t.Helper()
		set, err := dperf.ReadTraceSetData(name, data)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	want, err := setOutputs(read("serial.v1", v1))
	if err != nil {
		t.Fatal(err)
	}
	shared := read("shared.v1", v1)
	got := make([][4][]byte, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = setOutputs(shared)
		}()
	}
	wg.Wait()
	names := [4]string{"WriteJSON", "WriteBinary", "Stats", "Predict"}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		for k := range got[i] {
			if !bytes.Equal(got[i][k], want[k]) {
				t.Errorf("goroutine %d: shared %s differs from the serial run", i, names[k])
			}
		}
	}

	// Every call below may run before WriteBinary; none may change it.
	bin := want[1]
	fresh := read("fresh.v1", v1)
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"Prepare", fresh.Prepare},
		{"Flat", func() error { _, err := fresh.Flat(); return err }},
		{"WriteJSON", func() error { return fresh.WriteJSON(&bytes.Buffer{}) }},
		{"Stats", func() error { _, err := fresh.Stats(); return err }},
		{"Predict", func() error { _, err := fresh.Predict(); return err }},
		{"Sweep", func() error {
			_, err := dperf.Sweep(fresh, dperf.Space{Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN}})
			return err
		}},
	} {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		var buf bytes.Buffer
		if err := fresh.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), bin) {
			t.Errorf("WriteBinary after %s differs from a fresh set's", step.name)
		}
	}
	var js bytes.Buffer
	if err := ts.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, src := range []struct {
		name string
		set  *dperf.TraceSet
	}{
		{"generated", ts},
		{"v2", read("set.v2", encodeContainer(t, ts, 2))},
		{"json", read("set.json", js.Bytes())},
	} {
		var buf bytes.Buffer
		if err := src.set.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), bin) {
			t.Errorf("%s set: WriteBinary wrote %d B that differ from the v1-read set's %d B", src.name, buf.Len(), len(bin))
		}
	}
}
