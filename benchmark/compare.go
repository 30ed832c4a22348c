package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict judges one workload × metric pair of two results against the
// metric's fixed bound. A change is worse when b's value is worse than
// a's by more than the bound. When it is not, but on either side the
// value from the even rounds and the value from the odd rounds disagree
// by more than the bound, the pair is unresolved, not unchanged — unless
// every round of b beats every round of a.
func verdict(m metric, a, b summary) string {
	allowed := m.allowed(a.Value)
	if m.worsening(a.Value, b.Value) > allowed {
		return "worse"
	}
	if max(a.halfGap(), b.halfGap()) <= allowed {
		return "ok"
	}
	if m.higher && b.Min > a.Max || !m.higher && b.Max < a.Min {
		return "ok"
	}
	return "unresolved"
}

func loadResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload × end-to-end metric present in
// both files and returns how many rows are worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse int, err error) {
	a, err := loadResult(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n",
		pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta value [halves]\tb value [halves]\tdelta\tmay worsen by\tverdict\t")
	unresolved, rows := 0, 0
	for _, sp := range specs {
		wa, wb := a.Workloads[sp.name], b.Workloads[sp.name]
		if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			v := verdict(m, sa, sb)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			rows++
			delta := "0"
			if sa.Value != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(sb.Value-sa.Value)/sa.Value)
			} else if sb.Value != 0 {
				delta = fmt.Sprintf("%+.4g", sb.Value)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%s\t%.4g\t%s\t\n",
				sp.name, m.name, m.unit, sa.Value, sa.Halves[0], sa.Halves[1], sb.Value, sb.Halves[0], sb.Halves[1], delta, m.allowed(sa.Value), v)
		}
	}
	tw.Flush()
	if rows == 0 {
		return 0, fmt.Errorf("the two files share no workload with end-to-end metrics")
	}
	fmt.Fprintf(w, "%d rows: %d worse, %d unresolved\n", rows, worse, unresolved)
	return worse, nil
}
