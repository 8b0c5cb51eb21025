package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"pacifier"
	"pacifier/internal/debug"
	"pacifier/internal/debug/debughttp"
)

// debugCmd is the `pacifier debug` subcommand: record the reference
// execution, open a time-travel session over the log (an external log
// file, or the run's own recording when no file is given), and drive it
// from an interactive prompt or a -script file. With -http the session
// state is also served at /api/debug (+ SSE position stream) so a
// browser can follow along.
func debugCmd(args []string) {
	fs := flag.NewFlagSet("pacifier debug", flag.ExitOnError)
	var (
		app       = fs.String("app", "", "SPLASH-2-like application the log was recorded from")
		litmus    = fs.String("litmus", "", "litmus test the log was recorded from")
		cores     = fs.Int("cores", 16, "number of cores (threads)")
		ops       = fs.Int("ops", 2000, "memory operations per thread")
		seed      = fs.Uint64("seed", 1, "simulation seed of the original recording")
		modeName  = fs.String("mode", "gra", "recorder mode the log was made under")
		nonatomic = fs.Bool("nonatomic", false, "model non-atomic writes")
		script    = fs.String("script", "", "execute this debug command script and exit (CI mode)")
		httpAddr  = fs.String("http", "", "serve /api/debug and /api/debug/stream on this address")
		interval  = fs.Int64("interval", 0, "checkpoint every N chunks (0 = default 64); seek cost is O(interval)")
	)
	fs.Parse(args)
	if fs.NArg() > 1 {
		fail("usage: pacifier debug [-app|-litmus ...] [logfile]")
	}

	mode, err := pacifier.ParseMode(*modeName)
	if err != nil {
		fail("unknown -mode %q (valid: %s)", *modeName, strings.Join(pacifier.ModeNames(), ", "))
	}
	var w *pacifier.Workload
	switch {
	case *litmus != "":
		w, err = pacifier.Litmus(*litmus)
	case *app != "":
		w, err = pacifier.App(*app, *cores, *ops, *seed)
	default:
		fail("debug needs the original workload: -app or -litmus")
	}
	if err != nil {
		fail("%v", err)
	}

	// The reference is always profiled so the `prof` command has
	// replay-side attribution to show.
	run, err := pacifier.Record(w, pacifier.Options{
		Seed: *seed, Atomic: !*nonatomic, ProfileCycles: true,
	}, mode)
	if err != nil {
		fail("record reference: %v", err)
	}

	var blob []byte
	source := fmt.Sprintf("own recording (mode %v)", mode)
	if fs.NArg() == 1 {
		blob, err = os.ReadFile(fs.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		source = fmt.Sprintf("%s (%d bytes)", fs.Arg(0), len(blob))
	}
	ses, err := run.DebugSession(blob, mode, *interval)
	if err != nil {
		fail("%v", err)
	}

	if *httpAddr != "" {
		bound, stop, err := debughttp.Serve(*httpAddr, ses,
			slog.New(slog.NewTextHandler(os.Stderr, nil)))
		if err != nil {
			fail("%v", err)
		}
		defer stop()
		fmt.Printf("serving         http://%s/api/debug (SSE: /api/debug/stream)\n", bound)
	}

	fmt.Printf("debugging       %s\n", source)
	fmt.Printf("reference       %s (%d cores, seed %d, mode %v)\n",
		w.Name, len(w.Threads), *seed, mode)
	fmt.Printf("timeline        %d chunks, checkpoint every %d\n", ses.Total(), ses.Interval())

	repl := &debug.REPL{S: ses, Out: os.Stdout, Prompt: *script == ""}
	if *script != "" {
		text, err := os.ReadFile(*script)
		if err != nil {
			fail("%v", err)
		}
		if err := repl.RunScript(string(text)); err != nil {
			fail("%v", err)
		}
		return
	}
	fmt.Println(`type "help" for commands, "quit" to leave`)
	if err := repl.Run(os.Stdin); err != nil {
		fail("%v", err)
	}
}
