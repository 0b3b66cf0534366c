//go:build !race

package simjoin

const raceEnabled = false
