package core_test

import (
	"errors"
	"strings"
	"testing"

	"pacifier/internal/core"
	"pacifier/internal/harness"
	"pacifier/internal/machine"
	"pacifier/internal/record"
	"pacifier/internal/trace"
)

// TestRecorderPanicFailsHarnessJob: a recorder panic, raised again on the
// job's goroutine, is caught by the harness's per-job isolation and
// reported as that job's error; the sibling job and the process live on.
func TestRecorderPanicFailsHarnessJob(t *testing.T) {
	specs := []harness.JobSpec{
		{Kind: "litmus", Name: "sb", Modes: []string{"gra"}},
		{Kind: "litmus", Name: "mp", Modes: []string{"gra"}, Replay: true},
	}
	outcomes := harness.Run(specs, harness.Options{
		Workers: 1,
		Run: func(s harness.JobSpec) (*harness.Result, error) {
			if s.Name != "sb" {
				return harness.Execute(s)
			}
			_, err := core.RecordInjecting(trace.StoreBuffering(), core.DefaultOptions(),
				[]record.Mode{record.ModeGranule}, func(o machine.Observer) {
					o.OnDispatch(0, 99, trace.Read, 0)
				})
			return nil, err
		},
	})
	err := outcomes[0].Err
	if !errors.Is(err, harness.ErrPanicked) || !strings.Contains(err.Error(), "record: PW dispatch out of order") {
		t.Fatalf("job with a panicking recorder: err = %v, want the recorder's panic", err)
	}
	if outcomes[1].Err != nil {
		t.Fatalf("sibling job failed: %v", outcomes[1].Err)
	}
}
