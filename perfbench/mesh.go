package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dlvp/internal/obs"
	"dlvp/internal/server"
)

// daemon is one dlvpd process of a loopback mesh.
type daemon struct {
	cmd    *exec.Cmd
	base   string // API base URL, also its name on the dispatch ring
	debug  string // admin listener base URL ("" in untraced units)
	logs   *tail
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// mesh is two peered daemons started fresh for one unit.
type mesh struct {
	d      [2]*daemon
	client *http.Client // control calls and scrapes
}

// startMesh launches two peered daemons with -workers 1 and otherwise
// default flags (plus -debug-addr when traced) and waits until both serve
// /healthz. The time it takes is the unit's set-up.
func startMesh(bin string, traced bool) (*mesh, time.Duration, error) {
	t0 := time.Now()
	n := 2
	if traced {
		n = 4
	}
	ports, err := meshPorts(n)
	if err != nil {
		return nil, 0, err
	}
	m := &mesh{client: &http.Client{Timeout: 2 * time.Minute}}
	base := func(i int) string { return fmt.Sprintf("http://127.0.0.1:%d", ports[i]) }
	for i := range m.d {
		d := &daemon{base: base(i), logs: &tail{}, exited: make(chan struct{})}
		args := []string{"-addr", strings.TrimPrefix(d.base, "http://"), "-self", d.base,
			"-peers", base(1 - i), "-workers", "1"}
		if traced {
			d.debug = base(2 + i)
			args = append(args, "-debug-addr", strings.TrimPrefix(d.debug, "http://"))
		}
		d.cmd = exec.Command(bin, args...)
		d.cmd.Stdout, d.cmd.Stderr = d.logs, d.logs
		// A benchmark killed mid-unit takes its daemons with it.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			m.stop()
			return nil, 0, fmt.Errorf("start dlvpd: %w", err)
		}
		go func() { d.err = d.cmd.Wait(); close(d.exited) }()
		m.d[i] = d
	}
	for _, d := range m.d {
		if err := m.waitHealthy(d); err != nil {
			m.stop()
			return nil, 0, err
		}
	}
	return m, time.Since(t0), nil
}

func (m *mesh) waitHealthy(d *daemon) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("dlvpd %s exited during start-up: %v\n%s", d.base, d.err, d.logs)
		default:
		}
		resp, err := m.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("dlvpd %s not healthy after 30s\n%s", d.base, d.logs)
}

// stop terminates every daemon (SIGTERM, then SIGKILL after a grace
// period) and waits until each has exited.
func (m *mesh) stop() {
	for _, d := range m.d {
		if d != nil && d.cmd.Process != nil {
			_ = d.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, d := range m.d {
		if d == nil || d.cmd.Process == nil {
			continue
		}
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	m.client.CloseIdleConnections()
}

// peakRSSMB is the summed peak resident set of the mesh's daemons.
func (m *mesh) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range m.d {
		kb, err := procStatusKB(d.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

// snapshot is the mesh's counters summed over both daemons: Prometheus
// families by name, plus the /v1/stats engine counters under "stats.".
type snapshot map[string]float64

func (m *mesh) snapshot() (snapshot, error) {
	s := snapshot{}
	for _, d := range m.d {
		text, err := m.get(d.base + "/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range parseProm(string(text), d.base) {
			s[k] += v
		}
		var st server.ServerStats
		if err := m.getJSON(d.base+"/v1/stats", &st); err != nil {
			return nil, err
		}
		rs := st.Runner
		s["stats.cache_hits"] += float64(rs.CacheHits + rs.Coalesced)
		s["stats.cache_misses"] += float64(rs.CacheMisses)
		s["stats.sim_s"] += rs.SimSeconds
		s["stats.instrs"] += float64(rs.InstrsSimulated)
		if tc := rs.TraceCache; tc != nil {
			s["stats.tc_emulations"] += float64(tc.Emulations)
			s["stats.tc_evictions"] += float64(tc.Evictions)
			s["stats.tc_hits"] += float64(tc.Replays + tc.Follows)
			s["stats.tc_misses"] += float64(tc.Captures + tc.Bypasses)
			s["stats.tc_entries"] += float64(tc.Entries)
		}
		if cs := rs.Checkpoints; cs != nil {
			s["stats.ckpt_builds"] += float64(cs.Chained + cs.Cold)
			s["stats.ckpt_hits"] += float64(cs.Hits)
			s["stats.ckpt_evictions"] += float64(cs.Evictions)
		}
	}
	return s, nil
}

// meshLayers turns the counter deltas of one unit into layer values.
func meshLayers(before, after snapshot, l map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	l["tracecache.emulations"] = d("stats.tc_emulations")
	l["tracecache.evictions"] = d("stats.tc_evictions")
	l["tracecache.hit_ratio"] = mean(d("stats.tc_hits"), d("stats.tc_hits")+d("stats.tc_misses"))
	l["tracecache.resident_kernels"] = after["stats.tc_entries"]
	l["checkpoint.builds"] = d("stats.ckpt_builds")
	l["checkpoint.hits"] = d("stats.ckpt_hits")
	l["checkpoint.evictions"] = d("stats.ckpt_evictions")
	l["runner.cache_hit_ratio"] = mean(d("stats.cache_hits"), d("stats.cache_hits")+d("stats.cache_misses"))
	l["runner.sim_s"] = d("stats.sim_s")
	l["runner.queue_wait_ms.mean"] = 1e3 * mean(d("dlvpd_runner_queue_wait_seconds_sum"), d("dlvpd_runner_queue_wait_seconds_count"))
	l["runner.sim_ms.mean"] = 1e3 * mean(d("dlvpd_runner_sim_duration_seconds_sum"), d("dlvpd_runner_sim_duration_seconds_count"))
	l["dispatch.forward_frac"] = mean(d("dispatch_forwarded"), d("dlvpd_dispatch_attempts_total"))
	l["dispatch.latency_ms.mean"] = 1e3 * mean(d("dlvpd_dispatch_latency_seconds_sum"), d("dlvpd_dispatch_latency_seconds_count"))
	l["server.encode_ms.mean"] = 1e3 * mean(d("dlvpd_response_encode_seconds_sum"), d("dlvpd_response_encode_seconds_count"))
	l["sim.instructions"] = d("stats.instrs")
}

// parseProm sums a text exposition's samples by series name. With self
// set, dispatch attempts sent to any backend but self are also summed
// under "dispatch_forwarded".
func parseProm(text, self string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		out[name] += v
		if name == "dlvpd_dispatch_attempts_total" && self != "" && !strings.Contains(labels, `backend="`+self+`"`) {
			out["dispatch_forwarded"] += v
		}
	}
	return out
}

// traceTree fetches the cross-process span tree of a tagged request from
// the daemon it entered.
func (m *mesh) traceTree(d *daemon, id string) (clusterTrace, error) {
	var t clusterTrace
	err := m.getJSON(d.base+"/v1/traces/"+id+"?cluster=1", &t)
	return t, err
}

// clusterTrace is the part of GET /v1/traces/{id}?cluster=1 the folding uses.
type clusterTrace struct {
	ID        string   `json:"id"`
	Instances []string `json:"instances"`
	obs.Assembled
}

// profile fetches a CPU profile of seconds from each daemon's admin
// listener and writes daemon i's to path(i); it returns once both are
// written.
func (m *mesh) profile(seconds int, path func(i int) string) {
	var wg sync.WaitGroup
	for i, d := range m.d {
		if d.debug == "" || path(i) == "" {
			continue
		}
		wg.Add(1)
		go func(i int, d *daemon) {
			defer wg.Done()
			b, err := m.get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.debug, seconds))
			if err == nil {
				err = os.WriteFile(path(i), b, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "profile %s: %v\n", d.debug, err)
			}
		}(i, d)
	}
	wg.Wait()
}

func (m *mesh) get(url string) ([]byte, error) {
	resp, err := m.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return b, nil
}

func (m *mesh) getJSON(url string, v any) error {
	b, err := m.get(url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return nil
}

// meshPortBase is where the mesh's loopback ports start. Fixed ports give
// the daemons the same ring names in every unit, so rendezvous hashing
// splits the jobs between them the same way each time; busy ports shift
// the block.
const meshPortBase = 29471

func meshPorts(n int) ([]int, error) {
	for try := 0; try < 64; try++ {
		base := meshPortBase + 16*try
		var ls []net.Listener
		for i := 0; i < n; i++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				break
			}
			ls = append(ls, l)
		}
		for _, l := range ls {
			l.Close()
		}
		if len(ls) == n {
			ports := make([]int, n)
			for i := range ports {
				ports[i] = base + i
			}
			return ports, nil
		}
	}
	return nil, fmt.Errorf("no block of %d free loopback ports from %d", n, meshPortBase)
}

// tail keeps the last few KiB a daemon logged, for start-up failures.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// --- process memory and profiles ---------------------------------------------

// userHZ is the unit of the CPU times in /proc/<pid>/stat, fixed at 100
// by the Linux ABI.
const userHZ = 100

// cpuTime is the summed user and system CPU time the mesh's daemons have
// used so far, all threads included.
func (m *mesh) cpuTime() (time.Duration, error) {
	var ticks int64
	for _, d := range m.d {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name start at field 3
		// (state); utime and stime are fields 14 and 15.
		i := strings.LastIndexByte(string(b), ')')
		var f []string
		if i >= 0 {
			f = strings.Fields(string(b[i+1:]))
		}
		if len(f) < 13 {
			return 0, fmt.Errorf("/proc/%d/stat: unexpected format", d.cmd.Process.Pid)
		}
		for _, s := range f[11:13] {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/stat: %w", d.cmd.Process.Pid, err)
			}
			ticks += n
		}
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// selfCPUTime is the user and system CPU time this process has used so far.
func selfCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// procStatusKB reads one kB-valued field of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb, err
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, field)
}

// sampleSelfRSS samples this process's resident set every 5 ms until the
// returned function is called, which reports the peak in MB.
func sampleSelfRSS() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if kb, err := procStatusKB(0, "VmRSS"); err == nil {
				peak = max(peak, kb/1024)
			}
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// startCPUProfile profiles this process into path when on.
func startCPUProfile(on bool, path string) (func(), error) {
	if !on || path == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cpu profile:", err)
		}
	}, nil
}
