// Command benchmark is the end-to-end benchmark of record for stormd: it
// builds cmd/stormd from the checkout it sits in, spawns it on free loopback
// ports, drives it over real HTTP on two connections, checks every answer
// against ground truth it computes itself, and prints every metric by name.
//
//	bash benchmark/run.sh --workload zoom-stream --seed 1 --seconds 15 --trace 0
//	cd benchmark && go run .                     # all workloads, then the traced runs
//	cd benchmark && go run . -compare a.json b.json
//
// README.md describes the workloads, the metrics and how to read the trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the deferred clean-up so that children are stopped on
// every way out, a panic on this goroutine included (Pdeathsig covers the
// rest, see spawn).
func realMain() (code int) {
	defer stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	var (
		workload = flag.String("workload", "", "run one workload and print its result as the last line (empty = all four, then their traced runs)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		root     = flag.String("root", "", "checkout to build stormd from (default: found from the working directory)")
		out      = flag.String("out", "", "write this invocation's reports to this JSON record, replacing it (default with no -workload: <root>/benchmark/out/result.json)")
		reps     = flag.Int("reps", 1, "with no -workload: untraced runs per workload, on seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two records: -compare a.json b.json")
	)
	flag.Parse()

	dir, err := findRoot(*root)
	if err == nil {
		err = loadSpec(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	bin, err := buildStormd(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b := &bench{root: dir, bin: bin, seconds: *seconds, out: *out, rec: record{Stamp: newStamp(dir)}}

	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		rep, err := b.run(w, *seed, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printResultLine(rep)
		if !rep.Correct {
			return 1
		}
		return 0
	}

	if b.out == "" {
		b.out = filepath.Join(dir, "benchmark", "out", "result.json")
	}
	ok := true
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			n := *reps
			if traced {
				n = 1
			}
			for i := 0; i < n; i++ {
				rep, err := b.run(w, *seed+int64(i), traced)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				ok = ok && rep.Correct
			}
		}
	}
	fmt.Printf("record written to %s\n", b.out)
	if !ok {
		return 1
	}
	return 0
}

// findRoot locates the checkout: the given directory, or the working
// directory or its parent, whichever holds BENCHMARK.json beside benchmark/.
func findRoot(given string) (string, error) {
	candidates := []string{given}
	if given == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		abs, err := filepath.Abs(c)
		if err != nil {
			return "", err
		}
		if _, err := os.Stat(filepath.Join(abs, "BENCHMARK.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(abs, "benchmark", "spec.go")); err == nil {
			return abs, nil
		}
	}
	return "", errors.New("no checkout found: run from the repository root or from benchmark/, or pass -root")
}

// bench holds what every run of one invocation shares. rec is the record of
// this invocation alone: it starts empty, so a record never mixes runs of two
// invocations (or two commits) under one stamp.
type bench struct {
	root, bin string
	seconds   float64
	out       string
	rec       record
}

// run executes one workload once, prints its table and adds the report to
// the invocation's record, rewriting the record file so that a later failure
// keeps the runs made so far.
func (b *bench) run(w workloadSpec, seed int64, traced bool) (*report, error) {
	ctx := context.Background()
	in := newInputs(w, seed, b.seconds)
	o, err := execute(ctx, b.bin, in, traced)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
	}
	rep, client, g, timings := reduce(in, o)
	rep.Seconds, rep.Traced = b.seconds, traced
	if traced {
		layers, err := traceRun(b.root, in, o, client, timings, fullReplay)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d traced replay: %w", w.Name, seed, err)
		}
		rep.Info, rep.Metrics = rep.Metrics, layers
	}
	printTable(os.Stdout, rep, g, timings)
	if b.out != "" {
		b.rec.Runs = append(b.rec.Runs, rep)
		if err := b.rec.write(b.out); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// printTable prints one run for a human: every metric by name with unit and
// sample count, then ops and failed.
func printTable(w *os.File, rep *report, g *grades, t map[string]timing) {
	mode := "end-to-end"
	if rep.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s\n", rep.Workload, rep.Seed, rep.Seconds, mode)
	specs := spec.EndToEnd
	if rep.Traced {
		specs = spec.PerLayer
	}
	for _, m := range specs {
		v := rep.Metrics[m.Name]
		fmt.Fprintf(w, "  %-40s %14.4f %-6s n=%d\n", m.Name, v.Value, v.Unit, v.N)
	}
	names := append([]string(nil), clientMetrics...)
	for _, tail := range tails {
		names = append(names, tail.name)
	}
	for _, name := range names {
		if v, ok := rep.Info[name]; ok {
			fmt.Fprintf(w, "  %-40s %14.4f %-6s n=%d (informational)\n", name, v.Value, v.Unit, v.N)
		}
	}
	for _, k := range []string{"query", "ttfs", "ttci1", "rw", "lag", "post", "late"} {
		if s := t[k]; s.TailP > 0 {
			fmt.Fprintf(w, "  %-40s p50 %.3f ms, p%g %.3f ms, n=%d\n", k+" timing", s.P50, s.TailP*100, s.Tail, s.N)
		}
	}
	fmt.Fprintf(w, "  read phase per query: %.0f samples, %.1f lines, %.0f bytes; samplers %v\n", g.readSamples, g.readLines, g.readBytes, g.readSamplers)
	fmt.Fprintf(w, "  ops=%d failed=%d cover=%d/%d met=%d/%d window-skips=%d correct=%v\n",
		rep.Attempted, rep.Failed, g.covered, g.coverChecked, g.met, g.targeted, g.windowSkips, rep.Correct)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// printResultLine prints the driver's result object as the last line.
func printResultLine(rep *report) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, map[string]mv{}}
	for name, v := range rep.Metrics {
		res.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // table.set admits finite values only
	}
	fmt.Println(string(b))
}

// stamp records where and on what a record was measured.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Time       string `json:"time"`
}

func newStamp(root string) stamp {
	return stamp{
		Commit: commitOf(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// record is the file -out writes and -compare reads: the runs of one
// invocation under the stamp taken when it began.
type record struct {
	Stamp stamp     `json:"stamp"`
	Runs  []*report `json:"runs"`
}

func (rec *record) write(path string) error {
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commitOf reads the checked-out commit from .git without running git (the
// driver's checkout is not a repository; the stamp then says "unknown").
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // a detached HEAD holds the commit itself
	}
	commit, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(commit))
}
