package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// env is what a number means nothing without: recorded with every run.
type env struct {
	Commit           string `json:"commit"`
	CPU              string `json:"cpu"`
	NProc            int    `json:"nproc"`
	Kernel           string `json:"kernel"`
	Go               string `json:"go"`
	LoaderGOMAXPROCS int    `json:"loader_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
}

func readEnv() env {
	e := env{Commit: "unknown", CPU: "unknown", Kernel: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(),
		LoaderGOMAXPROCS: runtime.GOMAXPROCS(0), DaemonGOMAXPROCS: daemonProcs()}
	// "unknown" outside a git repository, which the driver's checkout is.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(out) > 0 {
			e.Commit += "+uncommitted"
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	return e
}

func environment() string {
	e := readEnv()
	return fmt.Sprintf("env: commit=%s cpu=%q nproc=%d kernel=%s go=%s loader_gomaxprocs=%d daemon_gomaxprocs=%d",
		e.Commit, e.CPU, e.NProc, e.Kernel, e.Go, e.LoaderGOMAXPROCS, e.DaemonGOMAXPROCS)
}

// censusRow is one metric on one workload across the census's runs.
// Spread is the interquartile distance as a share of the median — the
// quantity the driver holds against Bound.
type censusRow struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Min    float64   `json:"min"`
	Median float64   `json:"median"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"`
	Bound  float64   `json:"bound,omitempty"` // end-to-end metrics only
}

type census struct {
	Env       env                             `json:"env"`
	Seconds   int                             `json:"seconds"`
	Runs      int                             `json:"runs"`
	FirstSeed int64                           `json:"first_seed"`
	Failed    int                             `json:"failed_checks"`
	Workloads map[string]map[string]censusRow `json:"workloads"`
}

// runCensus runs every workload in both modes n times, each time with
// the next seed, and prints what repeated and what did not.
func runCensus(ctx context.Context, o options, n int) int {
	c := census{Env: readEnv(), Seconds: o.seconds, Runs: n, FirstSeed: o.seed,
		Workloads: make(map[string]map[string]censusRow)}
	bounds := make(map[string]float64)
	for _, m := range endToEndMetrics {
		bounds[m.name] = m.bound
	}
	// A workload's runs follow each other, as the driver's do: spread over
	// the whole census they would also sample the host's slow drift.
	for _, w := range workloads {
		for i := 0; i < n; i++ {
			for _, trace := range []bool{false, true} {
				run := o
				run.workload, run.trace, run.seed = w.Name, trace, o.seed+int64(i)
				res, err := runOne(ctx, run)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				c.Failed += res.Failed
				for _, msg := range res.mismatches {
					fmt.Fprintln(os.Stderr, "MISMATCH", msg)
				}
				rows := c.Workloads[w.Name]
				if rows == nil {
					rows = make(map[string]censusRow)
					c.Workloads[w.Name] = rows
				}
				for name, m := range res.Metrics {
					row := rows[name]
					row.Unit, row.Bound = m.Unit, bounds[name]
					row.Values = append(row.Values, m.Value)
					rows[name] = row
				}
				fmt.Fprintf(os.Stderr, "census: run %d/%d %s trace=%v done\n", i+1, n, w.Name, trace)
			}
		}
	}
	over := 0
	for wname, rows := range c.Workloads {
		for name, row := range rows {
			row.Min, row.Median, row.Max = quantile(row.Values, 0), median(row.Values), quantile(row.Values, 1)
			if row.Median != 0 && len(row.Values) > 1 {
				q1, q3 := quartiles(row.Values)
				row.Spread = (q3 - q1) / row.Median
			}
			rows[name] = row
			if row.Bound > 0 && row.Spread > row.Bound {
				over++
				fmt.Fprintf(os.Stderr, "census: %s %s spread %.1f%% exceeds bound %.0f%%\n", wname, name, row.Spread*100, row.Bound*100)
			}
		}
	}
	out, _ := json.MarshalIndent(c, "", " ")
	fmt.Println(string(out))
	printCensus(&c)
	if c.Failed > 0 || over > 0 {
		return 1
	}
	return 0
}

// printCensus is the human-readable digest, on stderr so stdout stays
// one JSON document.
func printCensus(c *census) {
	for _, w := range workloads {
		rows := c.Workloads[w.Name]
		names := make([]string, 0, len(rows))
		for n := range rows {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "== %s\n", w.Name)
		for _, n := range names {
			r := rows[n]
			bound := ""
			if r.Bound > 0 {
				bound = fmt.Sprintf(" bound %.0f%%", r.Bound*100)
			}
			fmt.Fprintf(os.Stderr, "%-40s min %12.4f med %12.4f max %12.4f %-6s spread %5.1f%%%s\n",
				n, r.Min, r.Median, r.Max, r.Unit, r.Spread*100, bound)
		}
	}
}
