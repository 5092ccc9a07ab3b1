//go:build race

package client

// raceEnabled: under -race sync.Pool drops items at random, so
// allocation counts are not stable.
const raceEnabled = true
