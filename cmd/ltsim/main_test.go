package main

import "testing"

// TestBuildRequestZeroFlagOrder: with two zero flags of one pair,
// buildRequest reports the first in declaration order every time, not
// whichever a map iteration happens to visit first.
func TestBuildRequestZeroFlagOrder(t *testing.T) {
	for _, tc := range []struct {
		c    config
		want string
	}{
		{config{mv: 0, ml: 0, mrv: 1, mrl: 1}, "-mv must be positive (or inf to disable the channel)"},
		{config{mv: 1, ml: 1, mrv: 0, mrl: 0}, "-mrv must be positive"},
	} {
		for i := 0; i < 100; i++ {
			_, err := buildRequest(tc.c)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("run %d: buildRequest error = %v, want %q", i, err, tc.want)
			}
		}
	}
}
