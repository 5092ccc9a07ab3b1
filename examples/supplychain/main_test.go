package main

import (
	"os"
	"testing"
)

// TestMainRuns runs the example end to end with its report discarded:
// a scenario that no longer completes fails here (main exits through
// log.Fatal) instead of only in the examples CI job.
func TestMainRuns(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() {
		os.Stdout = stdout
		devnull.Close()
	}()
	main()
}
