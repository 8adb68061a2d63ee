// Package cli is the front door the cmd/ tools share. Every command is
// a run(ctx, args, stdout, stderr) int behind Main, so tests drive it
// in-process; a Tool owns the flag set, the diagnostics prefix and the
// exit-code convention; a Batch owns what the batch tools (darco,
// darco-suite, darco-figs) have in common: the -scale -jobs -timeout
// -server -workload -json -cpuprofile -memprofile + run-knob flag
// block, host profiling of the whole command, the path from it to a
// validated darco.Config and a session, and the batch run itself.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/darco"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Exit codes of every tool.
const (
	OK    = 0 // the report is on stdout
	Fail  = 1 // a run failed, timed out or was interrupted
	Usage = 2 // the command line was wrong; nothing ran
)

// Main is the body of a cmd's main: it runs the command on the process
// arguments and streams under a context the first interrupt (or extra
// signal) cancels — the second one kills — and exits with its code.
func Main(run func(ctx context.Context, args []string, stdout, stderr io.Writer) int, extra ...os.Signal) {
	ctx, stop := signal.NotifyContext(context.Background(), append(extra, os.Interrupt)...)
	context.AfterFunc(ctx, stop)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// Tool is one command invocation: its flag set and output streams.
type Tool struct {
	*flag.FlagSet
	Stdout, Stderr io.Writer
}

// New returns the named tool; flag errors and -h go to stderr.
func New(name string, stdout, stderr io.Writer) *Tool {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Tool{FlagSet: fs, Stdout: stdout, Stderr: stderr}
}

// Parse parses the command line. When ok is false the tool is done and
// returns code: OK after -h, Usage after a flag error.
func (t *Tool) Parse(args []string) (code int, ok bool) {
	switch err := t.FlagSet.Parse(args); err {
	case nil, flag.ErrHelp:
		return OK, err == nil
	}
	return Usage, false
}

// Log prints "<tool>: <a...>" to stderr.
func (t *Tool) Log(a ...any) {
	fmt.Fprintln(t.Stderr, append([]any{t.Name() + ":"}, a...)...)
}

// Exit logs why the tool stops and returns code.
func (t *Tool) Exit(code int, a ...any) int {
	t.Log(a...)
	return code
}

// WithTimeout bounds ctx by a -timeout flag value (0 = none).
func WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// Batch is the parsed flag block of the batch tools.
type Batch struct {
	Scale    float64
	Jobs     int
	Timeout  time.Duration
	Server   string
	Workload string
	JSON     bool
	Knobs    *darco.Knobs

	// CPUProfile and MemProfile name the host profiles of the command
	// (pprof format); empty means none.
	CPUProfile, MemProfile string
}

// BindBatch registers the shared flag block on the tool. The three
// arguments are the usage text that differs per tool: what -workload
// does to the selection, what -json replaces, and what -timeout bounds.
func (t *Tool) BindBatch(workloadUsage, jsonUsage, timeoutScope string) *Batch {
	b := &Batch{Knobs: darco.BindFlags(t.FlagSet)}
	t.Float64Var(&b.Scale, "scale", 1.0, "workload dynamic-size multiplier")
	t.IntVar(&b.Jobs, "jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	t.DurationVar(&b.Timeout, "timeout", 0, "overall deadline for the whole "+timeoutScope+" (0 = none)")
	t.StringVar(&b.Server, "server", "", "run on a darco-serve instance at this base URL instead of simulating locally")
	t.StringVar(&b.Workload, "workload", "", "comma-separated workload references "+workloadUsage)
	t.BoolVar(&b.JSON, "json", false, jsonUsage)
	t.StringVar(&b.CPUProfile, "cpuprofile", "", "write a CPU profile of the command to `file`")
	t.StringVar(&b.MemProfile, "memprofile", "", "write an allocation profile to `file` when the command ends")
	return b
}

// Parse is Tool.Parse for a batch tool, which then starts the host
// profiles -cpuprofile and -memprofile ask for. When ok, the caller
// defers stop: it ends the CPU profile and writes the allocation
// profile. A profile that cannot be started is a usage error, and
// nothing runs.
func (b *Batch) Parse(t *Tool, args []string) (stop func(), code int, ok bool) {
	if code, ok = t.Parse(args); !ok {
		return nil, code, false
	}
	var cpu, mem *os.File
	fail := func(err error) (func(), int, bool) {
		for _, f := range []*os.File{cpu, mem} {
			if f != nil {
				f.Close()
			}
		}
		return nil, t.Exit(Usage, err), false
	}
	var err error
	if b.MemProfile != "" {
		if mem, err = os.Create(b.MemProfile); err != nil {
			return fail(err)
		}
	}
	if b.CPUProfile != "" {
		if cpu, err = os.Create(b.CPUProfile); err != nil {
			return fail(err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return fail(fmt.Errorf("-cpuprofile: %w", err))
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				t.Log("-cpuprofile:", err)
			}
		}
		if mem != nil {
			runtime.GC() // the profile's in-use figures date from the last collection
			err := pprof.Lookup("allocs").WriteTo(mem, 0)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Log("-memprofile:", err)
			}
		}
	}, OK, true
}

// Config folds the run-knob flags into base and validates the result.
func (b *Batch) Config(base darco.Config) (darco.Config, error) {
	err := b.Knobs.Apply(&base)
	if err == nil {
		err = base.Validate()
	}
	return base, err
}

// SessionOptions are the session options the flag block selects: the
// worker pool and, with -server, remote execution.
func (b *Batch) SessionOptions() []darco.SessionOption {
	opts := []darco.SessionOption{darco.WithWorkers(b.Jobs)}
	if b.Server != "" {
		opts = append(opts, darco.WithRemote(serve.NewClient(b.Server)))
	}
	return opts
}

// Refs canonicalises comma-separated workload-reference lists (empty
// lists are skipped): entries are trimmed and catalog names redirected
// to the catalog of the -isa frontend.
func (b *Batch) Refs(lists ...string) []string {
	var refs []string
	for _, list := range lists {
		if list == "" {
			continue
		}
		for _, ref := range strings.Split(list, ",") {
			refs = append(refs, workload.RefForISA(strings.TrimSpace(ref), b.Knobs.ISA))
		}
	}
	return refs
}

// Run is the flow darco and darco-suite share, and every batch is a
// grid: the references (see Refs) become an axis-less sweep.Grid at
// -scale, run through sweep.RunOn under cfg on the flag-selected
// session (plus extra options) within the -timeout deadline. A failing
// run never stops the rest. Reports come in reference order: with
// -json the []Record interchange array, failures included, otherwise
// whatever render makes of the successful rows. A selection that does
// not resolve is a usage error and nothing runs; run failures are
// summarised on stderr and make the exit code Fail.
func (b *Batch) Run(ctx context.Context, t *Tool, cfg darco.Config, refs []string,
	render func(done []sweep.Row), extra ...darco.SessionOption) int {
	ctx, cancel := WithTimeout(ctx, b.Timeout)
	defer cancel()
	g := &sweep.Grid{Workloads: refs, Scale: b.Scale}
	sess := darco.NewSession(append(b.SessionOptions(), extra...)...)
	rs, err := sweep.RunOn(ctx, sess, g, sweep.Options{Config: &cfg})
	if rs == nil {
		return t.Exit(Usage, err)
	}
	var records []darco.Record
	var done []sweep.Row
	var failed []string
	for _, row := range rs.Rows {
		rec := darco.Record{Benchmark: row.Name, Suite: row.Suite, Scale: g.Scale, Mode: cfg.Mode.String(), Error: row.Error}
		if row.Error != "" {
			failed = append(failed, row.Error)
		} else {
			rec.Summary, rec.Result = *row.Summary, row.Result
			done = append(done, row)
		}
		records = append(records, rec)
	}
	if !b.JSON {
		render(done)
	} else if err := darco.EncodeRecords(t.Stdout, records); err != nil {
		return t.Exit(Fail, err)
	}
	if len(failed) > 0 {
		fmt.Fprintf(t.Stderr, "\n%d of %d benchmarks failed:\n", len(failed), len(rs.Rows))
		for _, msg := range failed {
			// Session errors already carry the benchmark name.
			fmt.Fprintf(t.Stderr, "  %s\n", msg)
		}
		return Fail
	}
	return OK
}
