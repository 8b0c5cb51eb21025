package main

import "testing"

func TestCheckFig(t *testing.T) {
	for _, c := range []struct {
		fig int
		ok  bool
	}{
		{0, true}, {11, true}, {12, true}, {13, true}, {14, true},
		{7, false}, {1, false}, {10, false}, {15, false}, {-11, false},
	} {
		if err := checkFig(c.fig); (err == nil) != c.ok {
			t.Errorf("checkFig(%d) = %v, want ok=%v", c.fig, err, c.ok)
		}
	}
}
