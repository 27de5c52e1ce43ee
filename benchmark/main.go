// Command benchmark is the repo's benchmark: four long-run workloads against
// the native backend, four end-to-end metrics per workload that repeat on a
// shared box, and an outside-in cost stack of per-layer metrics from a traced
// run. It imports only the root façade package and the standard library. Run
// it from the root of the repo as `go run ./benchmark`. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// outDir receives the traced runs' trace files, relative to the working
// directory, which is the root of the repo.
var outDir = "benchmark/out"

// logw carries progress and checker messages; results go to stdout.
var logw io.Writer = os.Stderr

// runHeader precedes each result line and records the conditions of the run.
type runHeader struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Trace      int     `json:"trace"`
	Seed       int64   `json:"seed"`
	Segments   int     `json:"segments"`
	SegmentS   float64 `json:"segment_s"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Clerks     int     `json:"clerks"`
	Go         string  `json:"go"`
}

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "root seed: segment i of a run uses seed+i")
	seconds := flag.Int("seconds", 20, "seconds of measured segments per run (whole 2.5 s segments)")
	trace := flag.String("trace", "both", "0 = end-to-end metrics from untraced segments, 1 = per-layer metrics from the traced run, both")
	repeat := flag.Int("repeat", 0, "self-check: run every workload this many times and compare each end-to-end metric's spread to its bound")
	flag.Parse()

	// Pinned so the numbers mean the same on a larger box; GOGC is left at
	// the default and recorded.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var traces []int
	switch *trace {
	case "0":
		traces = []int{0}
	case "1":
		traces = []int{1}
	case "both":
		traces = []int{0, 1}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace wants 0, 1 or both, got %q\n", *trace)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds wants a positive number, got %d\n", *seconds)
		os.Exit(2)
	}
	p := planFor(*seconds)

	if *repeat > 0 {
		os.Exit(selfCheck(os.Stdout, selected, *seed, p, *repeat))
	}

	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	out := json.NewEncoder(os.Stdout)
	correct := true
	for _, w := range selected {
		for _, tr := range traces {
			_ = out.Encode(map[string]runHeader{"run": {
				Workload: w.name, Why: w.why, Trace: tr, Seed: *seed,
				Segments: p.segments, SegmentS: p.segment.Seconds(),
				GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc, Clerks: clerks, Go: runtime.Version(),
			}})
			run := measure
			if tr == 1 {
				run = measureTraced
			}
			res, err := run(w, *seed, p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
			_ = out.Encode(res)
			correct = correct && res.Correct
		}
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "benchmark: a checker rejected a segment")
		os.Exit(1)
	}
}
