//go:build race

package simjoin

// raceEnabled skips the allocation assertions: under the race detector
// sync.Pool drops a share of what is put back, so the pooled scratch is
// reallocated.
const raceEnabled = true
