//go:build race

package core

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation allocates, so zero-alloc contracts are only checked in
// non-race runs.
const raceEnabled = true
