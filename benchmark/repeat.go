package main

import (
	"fmt"
	"io"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the acceptance rule for this benchmark uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// selfCheck runs every selected workload's untraced run n times, each with
// another seed, prints each end-to-end metric's spread beside its bound, and
// reports 1 if any spread exceeds its bound (setup_s is shown but, as in
// the acceptance rule, not held to it).
func selfCheck(out io.Writer, selected []*workload, seed int64, p plan, n int) int {
	if n < 2 {
		fmt.Fprintln(out, "benchmark: -repeat needs at least 2 runs to have a spread")
		return 2
	}
	code := 0
	fmt.Fprintf(out, "| workload | metric | median | q1 | q3 | spread | bound | verdict |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range selected {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := measure(w, seed+int64(1000*i), p)
			if err != nil {
				fmt.Fprintf(out, "benchmark: %v\n", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(out, "benchmark: %s: a checker rejected a segment\n", w.name)
				code = 1
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			xs := values[d.Name]
			q1, q3 := quartiles(xs)
			sp := ratio(q3-q1, median(xs)) // the spread the acceptance rule bounds
			verdict := "ok"
			switch {
			case sp > d.Bound && d.Name == "setup_s":
				verdict = "wide (not held)"
			case sp > d.Bound:
				verdict = "TOO WIDE"
				code = 1
			case sp > d.Bound/3:
				verdict = "ok (above a third)"
			}
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %.6g | %.4f | %.3f | %s |\n",
				w.name, d.Name, median(xs), q1, q3, sp, d.Bound, verdict)
		}
	}
	return code
}
