//go:build race

package sim

// raceEnabled reports whether this test binary was built with the race
// detector. The zero-alloc gates skip under it: the detector's
// instrumentation allocates on paths that are allocation-free in a
// normal build, so AllocsPerRun would gate the instrumentation, not the
// code.
const raceEnabled = true
