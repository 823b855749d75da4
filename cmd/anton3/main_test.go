package main

import (
	"os"
	"strings"
	"testing"
)

// TestBadSizesExit2 pins the up-front size checks: each out-of-range value
// is rejected with exit code 2 before any job runs, instead of printing
// NaN or mis-measured rows or panicking inside a harness.
func TestBadSizesExit2(t *testing.T) {
	saved := os.Args
	defer func() { os.Args = saved }()
	for _, args := range []string{
		"fig5 -pairs 0",
		"fig9b -steps 0",
		"fig12 -steps -1",
		"mdsweep -mdsteps 0",
		"fig9a -measure 0",
		"fig9a -warm -1",
		"netsweep -shapes 1x1x1",
		"saturate -shapes 2x2x2,1x1x1",
	} {
		os.Args = append([]string{"anton3"}, strings.Fields(args)...)
		if code := run(); code != 2 {
			t.Errorf("anton3 %s: exit %d, want 2", args, code)
		}
	}
}
