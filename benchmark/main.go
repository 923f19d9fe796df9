// Command benchmark is the service benchmark: it builds each service
// stack in-process on loopback TCP, drives it with seeded device
// traffic in a closed loop, checks every byte it gets back, and prints
// every metric by name. See README.md.
//
// One workload, as the benchmark driver runs it (last stdout line is
// the result):
//
//	bash benchmark/run.sh --workload small_sync --seed 1 --seconds 20 --trace 0
//
// All four workloads, untraced then traced, as one JSON document:
//
//	go run -C benchmark . -seed 1 -out report.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"

	"mcloud/internal/dist"
)

// minFreeDisk is what a run may need: bulk_upload writes about 1 GB
// and up to two stacks exist while set-up repeats.
const minFreeDisk = 4 << 30

// report is the document the full run prints.
type report struct {
	Env  map[string]any `json:"env"`
	Runs []*result      `json:"runs"`
	// TraceOverhead is 1 - ops_per_s(traced) / ops_per_s(untraced).
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
	Spread        []spreadRow        `json:"spread,omitempty"`
}

func environment(seed uint64, seconds float64) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "seed": seed, "seconds": seconds,
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "run this one workload and print the driver's one-line result (empty: all four, untraced then traced)")
		seed    = flag.Uint64("seed", 1, "seed of the generated traffic")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "with -workload: 1 runs with the span wrappers and reports the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "shrink file sizes so that all workloads run in seconds")
		repeat  = flag.Int("repeat", 0, "run the untraced set this many times and report median and spread per metric")
		out     = flag.String("out", "", "write the full report here instead of stdout")
		spans   = flag.String("spans", "", "write the traced run's spans here, one JSON object per line (with -workload)")
		tmp     = flag.String("tmp", "", "parent of the run's data directory (default: the system temp dir)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected argument", flag.Arg(0))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *tmp != "" {
		if err := os.MkdirAll(*tmp, 0o755); err != nil {
			return fatal(err)
		}
	}
	root, err := os.MkdirTemp(*tmp, "mcs-benchmark-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(root)
	var fs syscall.Statfs_t
	if err := syscall.Statfs(root, &fs); err != nil {
		return fatal(err)
	}
	if free := fs.Bavail * uint64(fs.Bsize); free < minFreeDisk && !*smoke {
		return fatal(fmt.Errorf("%s has %d MB free; the benchmark needs %d MB", root, free>>20, minFreeDisk>>20))
	}

	specs := workloads(*smoke)
	if *name != "" {
		var s *spec
		for _, c := range specs {
			if c.name == *name {
				s = c
			}
		}
		if s == nil {
			return fatal(fmt.Errorf("no workload %q", *name))
		}
		res, err := runWorkload(ctx, s, *seed, *seconds, *trace == 1, root, *spans)
		if err != nil {
			return fatal(err)
		}
		return printDriverLine(res)
	}

	rep := report{Env: environment(*seed, *seconds)}
	ok := true
	runOne := func(s *spec, traced bool) (*result, error) {
		res, err := runWorkload(ctx, s, *seed, *seconds, traced, root, "")
		if err != nil {
			return nil, err
		}
		progress(res)
		ok = ok && res.Correct
		rep.Runs = append(rep.Runs, res)
		return res, nil
	}
	if *repeat > 0 {
		for i := 0; i < *repeat; i++ {
			for _, s := range specs {
				if _, err := runOne(s, false); err != nil {
					return fatal(err)
				}
			}
		}
		rep.Spread = spreads(rep.Runs)
		for _, row := range rep.Spread {
			verdict := ""
			if row.Exceeded {
				verdict, ok = "  EXCEEDED", false
			}
			fmt.Fprintf(os.Stderr, "%-14s %-28s median %12.4f %-5s spread %6.2f%% (bound %4.1f%%)%s\n",
				row.Workload, row.Metric, row.Median, row.Unit, 100*row.Spread, 100*row.Bound, verdict)
		}
	} else {
		rep.TraceOverhead = map[string]float64{}
		for _, s := range specs {
			plain, err := runOne(s, false)
			if err != nil {
				return fatal(err)
			}
			traced, err := runOne(s, true)
			if err != nil {
				return fatal(err)
			}
			rep.TraceOverhead[s.name] = 1 - traced.PerLayer["traced_ops_per_s"].Value/plain.EndToEnd["ops_per_s"].Value
		}
	}
	w := os.Stdout
	if *out != "" {
		if w, err = os.Create(*out); err != nil {
			return fatal(err)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	err = enc.Encode(rep)
	if *out != "" {
		err = errors.Join(err, w.Close())
	}
	if err != nil {
		return fatal(err)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED (lost or corrupt data, failed operations, or a spread beyond its bound)")
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

func progress(res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "%s %s: %d ops in %.1f s window, %d attempted, %d failed, wall %.1f s\n",
		res.Workload, mode, res.Counts["measured_ops"], res.Seconds, res.Attempted, res.Failed, res.WallS)
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "  ", f)
	}
}

// printDriverLine prints the one-line result the benchmark driver
// reads: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func printDriverLine(res *result) int {
	progress(res)
	metrics := res.EndToEnd
	if res.Traced {
		metrics = res.PerLayer
	}
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]driverMetric{}}
	for name, m := range metrics {
		line.Metrics[name] = driverMetric{m.Value, m.Unit}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		return fatal(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// spreadRow is one end-to-end metric of one workload across repeated
// runs: the median, and the run-to-run spread as a share of it (the
// interquartile range from four runs up, the full range below).
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
	Exceeded bool    `json:"exceeded,omitempty"`
}

func spreads(runs []*result) []spreadRow {
	var rows []spreadRow
	var order []string
	by := map[string][]*result{}
	for _, r := range runs {
		if by[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		by[r.Workload] = append(by[r.Workload], r)
	}
	for _, wl := range order {
		for _, def := range endToEnd {
			var vals []float64
			for _, r := range by[wl] {
				vals = append(vals, r.EndToEnd[def.name].Value)
			}
			sort.Float64s(vals)
			med := dist.Median(vals)
			width := vals[len(vals)-1] - vals[0]
			if n := len(vals); n >= 4 {
				width = quantile(vals, 0.75) - quantile(vals, 0.25)
			}
			row := spreadRow{wl, def.name, def.unit, med, width / med, def.bound, false}
			// setup_s is held to its bound between sets of runs, not within one.
			row.Exceeded = row.Spread > def.bound && def.name != "setup_s"
			rows = append(rows, row)
		}
	}
	return rows
}

// quantile interpolates like Python's statistics.quantiles (exclusive
// method), which is what the benchmark driver uses.
func quantile(sorted []float64, q float64) float64 {
	pos := q*float64(len(sorted)+1) - 1
	i := min(max(int(pos), 0), len(sorted)-2)
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
