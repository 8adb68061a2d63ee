// Package cli is the front door the cmd/ tools share. Every command is
// a run(ctx, args, stdout, stderr) int behind Main, so tests drive it
// in-process; a Tool owns the flag set, the diagnostics prefix and the
// exit-code convention; a Batch owns what the batch tools (darco,
// darco-suite, darco-figs) have in common: the -scale -jobs -timeout
// -server -workload -json + run-knob flag block and the path from it
// to a validated darco.Config, a session, resolved jobs and records.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/darco"
	"repro/internal/serve"
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
	return b
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

// Plan resolves the flag block on base: the validated configuration
// and, for the selected reference lists (see Refs), the session jobs
// running them at -scale. Any error is a usage error.
func (b *Batch) Plan(base darco.Config, lists ...string) (cfg darco.Config, jobs []darco.Job, err error) {
	if cfg, err = b.Config(base); err != nil {
		return cfg, nil, err
	}
	for _, ref := range b.Refs(lists...) {
		job, err := darco.WithWorkload(ref, b.Scale, darco.WithConfig(cfg))
		if err != nil {
			return cfg, nil, err
		}
		jobs = append(jobs, job)
	}
	return cfg, jobs, nil
}

// Execute is the flow darco and darco-suite share. It runs the jobs on
// the flag-selected session (plus extra options) under the -timeout
// deadline — a failing job never stops the rest — and reports in job
// order: with -json the []Record interchange array, failures included,
// otherwise whatever render makes of the successful outcomes. Failures
// are summarised on stderr and make the exit code Fail.
func (b *Batch) Execute(ctx context.Context, t *Tool, cfg darco.Config, jobs []darco.Job,
	render func(done []darco.BatchResult), extra ...darco.SessionOption) int {
	ctx, cancel := WithTimeout(ctx, b.Timeout)
	defer cancel()
	var records []darco.Record
	var done []darco.BatchResult
	var failed []error
	for _, br := range darco.NewSession(append(b.SessionOptions(), extra...)...).RunBatch(ctx, jobs) {
		p := br.Job.Program
		records = append(records, darco.NewRecord(p.Name(), p.Meta().Suite, br.Job.Scale, cfg.Mode, br.Result, br.Err))
		if br.Err != nil {
			failed = append(failed, br.Err)
		} else {
			done = append(done, br)
		}
	}
	if !b.JSON {
		render(done)
	} else if err := darco.EncodeRecords(t.Stdout, records); err != nil {
		return t.Exit(Fail, err)
	}
	if len(failed) > 0 {
		fmt.Fprintf(t.Stderr, "\n%d of %d benchmarks failed:\n", len(failed), len(jobs))
		for _, err := range failed {
			// Session errors already carry the benchmark name.
			fmt.Fprintf(t.Stderr, "  %v\n", err)
		}
		return Fail
	}
	return OK
}
