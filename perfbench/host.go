package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// fingerprint identifies the host a result set was measured on. Results
// from hosts with different fingerprints are not compared.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	ParEff     float64 `json:"parallel_efficiency"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, 2-goroutine parallel efficiency %.2f",
		f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion, f.ParEff)
}

// parEffSlack is how far two parallel-efficiency probes of one host may
// differ; the probe is itself a timing and drifts with host load.
const parEffSlack = 0.2

// sameHost reports whether two fingerprints describe the same host, and
// if not, why.
func sameHost(a, b fingerprint) (bool, string) {
	switch {
	case a.CPU != b.CPU:
		return false, fmt.Sprintf("CPU %q vs %q", a.CPU, b.CPU)
	case a.NProc != b.NProc:
		return false, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return false, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return false, fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion)
	case math.Abs(a.ParEff-b.ParEff) > parEffSlack:
		return false, fmt.Sprintf("parallel efficiency %.2f vs %.2f", a.ParEff, b.ParEff)
	}
	return true, ""
}

func probeHost() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		ParEff:     parallelEfficiency(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// parallelEfficiency spins one goroutine, then two, for a fixed window
// each and returns the two-goroutine work over twice the one-goroutine
// work: 1.0 on two idle cores, about 0.5 on what behaves like one. It is
// the median of three such trials, as one window is easily disturbed.
func parallelEfficiency() float64 {
	const window = 100 * time.Millisecond
	spin := func(n int) float64 {
		counts := make([]float64, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				end := time.Now().Add(window)
				x := 1.0
				for time.Now().Before(end) {
					for j := 0; j < 1000; j++ {
						x = x*1.0000001 + 1e-9
					}
					counts[i]++
				}
				if x == 0 {
					counts[i] = -1 // keeps the loop from being optimized away
				}
			}(i)
		}
		wg.Wait()
		var sum float64
		for _, c := range counts {
			sum += c
		}
		return sum
	}
	trials := make([]float64, 3)
	for i := range trials {
		one := spin(1)
		trials[i] = ratio(spin(2), 2*one)
	}
	return median(trials)
}

// compare prints the metric ratios of two result records (the .json files
// a run writes), refusing when they come from different hosts.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if ok, why := sameHost(recs[0].Host, recs[1].Host); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different hosts: %s\n", why)
		return 3
	}
	if recs[0].Workload != recs[1].Workload || recs[0].Traced != recs[1].Traced {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare different workloads or run kinds")
		return 3
	}
	names := make([]string, 0, len(recs[0].Metrics))
	for k := range recs[0].Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %14s %9s\n", recs[0].Workload, "base", "new", "new/base")
	for _, k := range names {
		a, b := recs[0].Metrics[k], recs[1].Metrics[k]
		fmt.Printf("%-28s %14.6g %14.6g %9.4f  %s\n", k, a.Value, b.Value, ratio(b.Value, a.Value), a.Unit)
	}
	return 0
}
