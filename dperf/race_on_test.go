//go:build race

package dperf_test

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on its own: allocation
// bounds apply only without it.
const raceEnabled = true
