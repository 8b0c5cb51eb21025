package main

import (
	"errors"
	"testing"
)

func TestFailMessagePrefixedOnce(t *testing.T) {
	for _, c := range []struct {
		format string
		args   []any
		want   string
	}{
		// The facade's errors already name the command.
		{"%v", []any{errors.New(`pacifier: unknown litmus test "nope"`)},
			`pacifier: unknown litmus test "nope"`},
		{"%v", []any{errors.New(`pacifier: app "fft" needs at least 1 thread`)},
			`pacifier: app "fft" needs at least 1 thread`},
		// The command's own messages and other packages' errors get it.
		{"need -app, -litmus or -load (try -list)", nil,
			"pacifier: need -app, -litmus or -load (try -list)"},
		{"%v", []any{errors.New("core: no recording for mode gra")},
			"pacifier: core: no recording for mode gra"},
	} {
		if got := failMessage(c.format, c.args...); got != c.want {
			t.Errorf("failMessage(%q, %v) = %q, want %q", c.format, c.args, got, c.want)
		}
	}
}
