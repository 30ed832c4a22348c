// Command benchmark is the repository's cost ledger: five named workloads,
// ten end-to-end metrics and an outside-in per-layer ladder, with every
// reply verified. README.md in this directory defines every name.
//
//	go run ./benchmark                         all workloads, timed rounds then the traced ladder
//	go run ./benchmark -workload W -trace 0    one workload, end-to-end metrics, result as a last JSON line
//	go run ./benchmark -workload W -trace 1    one workload, per-layer metrics, result as a last JSON line
//	go run ./benchmark -compare a.json b.json  two result files against the fixed bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string // "0" timed rounds only, "1" traced ladder only, "both"
	out      string
	smoke    bool
	log      io.Writer // progress lines
}

func main() {
	o := options{log: os.Stderr}
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print its result as a last JSON line (default: all five)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same keys, values and op sequence")
	flag.Float64Var(&o.seconds, "seconds", 21, "measuring time per workload and mode: half-second rounds, the first a warm-up; at least 3")
	flag.StringVar(&o.trace, "trace", "both", "0: timed rounds only; 1: traced ladder only; both")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for result and trace files")
	flag.BoolVar(&o.smoke, "smoke", false, "all five workloads for one 100 ms round each, then one short ladder: a wiring check, not a measurement")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}
	res, err := bench(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// env records where and how a result was measured.
type env struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Clients    int     `json:"clients"`
	Rounds     int     `json:"rounds"`
	RoundS     float64 `json:"round_s"`
	Setups     int     `json:"setups"`
	Trace      string  `json:"trace"`
	Workload   string  `json:"workload,omitempty"`
	Started    string  `json:"started"`
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Why        string               `json:"why"`
	Rounds     []map[string]float64 `json:"rounds,omitempty"` // measured rounds, in order
	Setups     []float64            `json:"setup_s_repeats,omitempty"`
	EndToEnd   map[string]summary   `json:"end_to_end,omitempty"`
	GetSamples int                  `json:"get_samples_per_round,omitempty"`
	SetSamples int                  `json:"set_samples_per_round,omitempty"`
	Total      tally                `json:"total"` // every op issued, warm-up and ladder included

	PerLayer    map[string]float64 `json:"per_layer,omitempty"` // median over the ladder passes
	Passes      int                `json:"ladder_passes,omitempty"`
	Ladder      []ladderRow        `json:"ladder,omitempty"`
	LadderSumNs float64            `json:"ladder_sum_ns_per_op,omitempty"`
}

type result struct {
	Env       env                        `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if w.Total.Failed > 0 || w.Total.Attempted == 0 {
			return false
		}
	}
	return true
}

// roundLen is one round: a latency phase then a throughput phase. Rounds
// are short and many because interference arrives in bursts of seconds:
// the more rounds, the likelier some run undisturbed.
const roundLen = 500 * time.Millisecond

// setupRepeats is how often each fixture is built; setup_s is the median.
const setupRepeats = 5

// clients is the throughput phase's client count: the paper's clients each
// wait for their reply, and the in-process servers share these cores.
func clients() int { return min(runtime.NumCPU(), 4) }

func commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

// bench runs the selected workloads and modes, prints the tables to w and
// writes the result and trace files.
func bench(o options, w io.Writer) (*result, error) {
	run := specs
	if o.workload != "" {
		sp := specByName(o.workload)
		if sp == nil {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		run = []*spec{sp}
	}
	timed, traced := o.trace != "1", o.trace != "0"
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return nil, fmt.Errorf("-trace must be 0, 1 or both, not %q", o.trace)
	}
	roundDur, rounds, setups := roundLen, int(o.seconds/roundLen.Seconds())-1, setupRepeats
	budget, ladderScale := time.Duration(o.seconds*float64(time.Second)), 1
	if o.smoke {
		roundDur, rounds, setups, budget, ladderScale = 100*time.Millisecond, 1, 1, 0, 16
	} else if rounds < 5 {
		return nil, fmt.Errorf("-seconds %v: a warm-up and at least 5 measured rounds of %v are needed", o.seconds, roundLen)
	}
	res := &result{
		Env: env{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Seed: o.seed, Clients: clients(), Rounds: rounds, RoundS: roundDur.Seconds(),
			Setups: setups, Trace: o.trace, Workload: o.workload, Started: time.Now().UTC().Format(time.RFC3339)},
		Workloads: map[string]*workloadResult{},
	}
	for _, sp := range run {
		res.Workloads[sp.name] = &workloadResult{Why: sp.why}
	}
	progress := func(s string) { fmt.Fprintln(o.log, s) }
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}

	if timed {
		buf := newSampleBufs()
		var rs []*runner
		defer func() {
			for _, r := range rs {
				r.close()
			}
		}()
		for _, sp := range run {
			r, err := newRunner(sp, o.seed, clients(), setups, buf)
			if err != nil {
				return nil, err
			}
			rs = append(rs, r)
			progress(fmt.Sprintf("%s set up in %.3f s", sp.name, median(r.setups)))
		}
		runAll(rs, rounds, roundDur, progress)
		for _, r := range rs {
			wr := res.Workloads[r.sp.name]
			wr.Rounds, wr.Setups, wr.EndToEnd = r.rounds, r.setups, r.summaries()
			wr.GetSamples, wr.SetSamples = r.getSamples, r.setSamples
			wr.Total.add(r.total)
		}
	}
	if traced {
		for _, sp := range run {
			if o.smoke && sp != run[0] {
				continue // one ladder proves the wiring; five would not fit the smoke budget
			}
			tr, err := traceWorkload(sp, o.seed, budget, ladderScale)
			if err != nil {
				return nil, err
			}
			wr := res.Workloads[sp.name]
			wr.PerLayer, wr.Passes, wr.Ladder = tr.perLayer, tr.passes, selfTimes(sp, tr.perLayer)
			for _, row := range wr.Ladder {
				wr.LadderSumNs += row.SelfNs
			}
			wr.Total.add(tr.total)
			if err := writeJSON(filepath.Join(o.out, "trace-"+sp.name+".json"), tr.spans); err != nil {
				return nil, err
			}
			for _, f := range tr.failures {
				progress(sp.name + ": " + f)
			}
			progress(fmt.Sprintf("%s traced, %d passes", sp.name, tr.passes))
		}
	}

	for _, sp := range run {
		printWorkload(w, sp, res)
	}
	what := "all"
	if o.workload != "" {
		what = o.workload
	}
	file := filepath.Join(o.out, fmt.Sprintf("bench-%s-seed%d-trace%s.json", what, o.seed, o.trace))
	if err := writeJSON(file, res); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "result file: %s\n", file)
	if o.workload != "" {
		if err := printLastLine(w, res.Workloads[o.workload], timed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printLastLine prints the one-object result a driver reads: the
// end-to-end metrics of a timed run, or the per-layer metrics of a traced
// one. fail_ratio travels as attempted/failed instead, because that
// contract wants metrics that are never 0.
func printLastLine(w io.Writer, wr *workloadResult, timed bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if timed {
		for _, m := range endToEnd {
			if m.name != "fail_ratio" {
				metrics[m.name] = value{wr.EndToEnd[m.name].Value, m.unit}
			}
		}
	} else {
		for _, m := range perLayer {
			metrics[m.name] = value{wr.PerLayer[m.name], m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": wr.Total.Failed == 0, "attempted": wr.Total.Attempted, "failed": wr.Total.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printWorkload(w io.Writer, sp *spec, res *result) {
	wr := res.Workloads[sp.name]
	fmt.Fprintf(w, "\n== %s: %s\n", sp.name, sp.why)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if wr.EndToEnd != nil {
		fmt.Fprintf(w, "closed loop; latency phase 1 client, throughput phase %d clients; %d rounds of %.2f s; %d Get and %d Set samples in the last latency phase\n",
			res.Env.Clients, res.Env.Rounds, res.Env.RoundS, wr.GetSamples, wr.SetSamples)
		fmt.Fprintln(tw, "end-to-end metric\tunit\tvalue\tis the\teven rounds\todd rounds\tmedian\tq1\tq3\tmin\tmax\tn\t")
		for _, m := range endToEnd {
			s, how := wr.EndToEnd[m.name], "median"
			if m.timed {
				how = "best decile"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%d\t\n",
				m.name, m.unit, s.Value, how, s.Halves[0], s.Halves[1], s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
		tw.Flush()
	}
	if wr.PerLayer != nil {
		fmt.Fprintf(w, "traced ladder: median of %d passes\n", wr.Passes)
		fmt.Fprintln(tw, "per-layer metric\tunit\tvalue\tshould move\t")
		for _, m := range perLayer {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t\n", m.name, m.unit, wr.PerLayer[m.name], m.moves)
		}
		tw.Flush()
		fmt.Fprintln(tw, "self time on this path\tns/op\t")
		for _, row := range wr.Ladder {
			fmt.Fprintf(tw, "%s\t%.1f\t\n", row.Layer, row.SelfNs)
		}
		traced, untimed := wr.PerLayer["path.ns_per_op"], wr.PerLayer["path.untimed_ns_per_op"]
		fmt.Fprintf(tw, "sum\t%.1f\t= %.3f of the path's traced %.1f ns/op (median over blocks, as the rungs), %.3f of its untimed %.1f (mean)\t\n",
			wr.LadderSumNs, wr.LadderSumNs/traced, traced, wr.LadderSumNs/untimed, untimed)
		tw.Flush()
	}
	fmt.Fprintf(w, "verified: %d ops attempted, %d failed\n", wr.Total.Attempted, wr.Total.Failed)
	if missed := wr.Total.Gets - wr.Total.Hits; sp.fits && missed > 0 && wr.Total.Failed == 0 {
		fmt.Fprintf(w, "WARNING: the working set fits the cache, yet %d of %d Gets missed\n", missed, wr.Total.Gets)
	}
}
