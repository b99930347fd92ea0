package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricVal is one reported figure with its sample count.
type metricVal struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// report is everything one workload run measured and checked.
type report struct {
	Workload    string       `json:"workload"`
	Seed        int64        `json:"seed"`
	Trace       bool         `json:"trace"`
	Seconds     float64      `json:"seconds"`
	Smoke       bool         `json:"smoke,omitempty"`
	Fingerprint fingerprint  `json:"fingerprint"`
	Metrics     []metricVal  `json:"metrics"`
	Phases      []phaseStats `json:"phases,omitempty"`
	SelfTimesMs []selfTime   `json:"self_times_ms,omitempty"`
	Attempted   int          `json:"attempted"`
	Failed      int          `json:"failed"`
	ErrorRate   float64      `json:"error_rate"`
	Failures    []string     `json:"failures,omitempty"`
	SelfCheck   string       `json:"gate_self_check"`
	Notes       []string     `json:"notes,omitempty"`
	gates       gateLog
	selfCheck   []string
	byName      map[string]int
}

// selfTime is one layer's summed self time in the traced run.
type selfTime struct {
	Name  string  `json:"name"`
	Spans int     `json:"spans"`
	Ms    float64 `json:"ms"`
}

func newReport(rc runConfig, name string, fp fingerprint) *report {
	return &report{Workload: name, Seed: rc.seed, Trace: rc.trace, Seconds: rc.seconds.Seconds(),
		Smoke: rc.smoke, Fingerprint: fp, byName: map[string]int{}}
}

// set records (or replaces) a metric.
func (r *report) set(name, unit string, v float64, n int, note string) {
	m := metricVal{Name: name, Unit: unit, Value: v, Samples: n, Note: note}
	if i, ok := r.byName[name]; ok {
		r.Metrics[i] = m
		return
	}
	r.byName[name] = len(r.Metrics)
	r.Metrics = append(r.Metrics, m)
}

// setRef records a CPU-bound metric in reference units: its wall value v
// times the run's calibration factor f. The wall value is kept beside it
// as wall.<name>.
func (r *report) setRef(name, unit string, v, f float64, n int, note string) {
	r.set(name, unit, v*f, n, fmt.Sprintf("%s; reference units, wall × %.4f", note, f))
	r.set("wall."+name, unit, v, n, note+"; wall time")
}

// calibration records the run's calibration passes.
func (r *report) calibration(c *calibrator) {
	r.set("calib.compute_ms", "ms", median(c.compute), len(c.compute),
		fmt.Sprintf("median compute part of the calibration pass; %g ms on the reference machine", calibComputeRef))
	r.set("calib.memory_ms", "ms", median(c.memory), len(c.memory),
		fmt.Sprintf("median memory part of the calibration pass; %g ms on the reference machine", calibMemoryRef))
}

func (r *report) get(name string) (metricVal, bool) {
	i, ok := r.byName[name]
	if !ok {
		return metricVal{}, false
	}
	return r.Metrics[i], true
}

func (r *report) note(s string) { r.Notes = append(r.Notes, s) }

func (r *report) selfCheckFailed(err error) { r.selfCheck = append(r.selfCheck, err.Error()) }

// finish folds the gate log into the report's totals.
func (r *report) finish() {
	r.Attempted, r.Failed, r.Failures = r.gates.attempted, r.gates.failed, r.gates.msgs
	if r.Attempted > 0 {
		r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	}
	r.SelfCheck = "ok"
	if len(r.selfCheck) > 0 {
		r.SelfCheck = strings.Join(r.selfCheck, "; ")
	}
	sort.Slice(r.SelfTimesMs, func(i, j int) bool { return r.SelfTimesMs[i].Ms > r.SelfTimesMs[j].Ms })
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.selfCheck) == 0 && r.Attempted > 0 }

// fingerprint identifies the machine and the code a result came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
}

func machineFingerprint(seed int64) fingerprint {
	return fingerprint{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit(), SourceHash: sourceHash("."), Seed: seed}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// a repository; a checkout without one reports "unknown" and is identified
// by its source hash instead.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceHash hashes every Go source and module file under root (skipping
// dot-directories such as build outputs), in path order.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resetPeakRSS clears the kernel's resident-set high-water mark, so the
// next peakRSSMB reading covers only what ran after it.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return clearPeakRSS()
}

// retainedFreeHeapMB is the free heap the runtime holds resident: idle
// heap not returned to the operating system.
func retainedFreeHeapMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapIdle-m.HeapReleased) / (1 << 20)
}

// clearPeakRSS resets the resident-set high-water mark to the current
// resident set, without collecting.
func clearPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakWindows are the high-water marks of consecutive windows, in MB.
type peakWindows struct {
	mb  []float64
	err error
}

// watchPeaks clears the high-water mark, then at the end of every window
// of the given length, and once more when stop closes, reads and clears
// it; it sends the windows' peaks when done.
func watchPeaks(window time.Duration, stop <-chan struct{}, out chan<- peakWindows) {
	var pw peakWindows
	read := func() {
		if pw.err != nil {
			return
		}
		p, err := peakRSSMB()
		if err == nil {
			pw.mb = append(pw.mb, p)
			err = clearPeakRSS()
		}
		pw.err = err
	}
	pw.err = clearPeakRSS()
	t := time.NewTicker(window)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			read()
		case <-stop:
			read()
			out <- pw
			return
		}
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
