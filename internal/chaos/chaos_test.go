package chaos

import (
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"testing"
	"time"
)

func TestMixPickDeterministicAndWeighted(t *testing.T) {
	mix := Mix{Hot: 1, Cold: 1, Jobs: 2}
	draw := func() map[string]int {
		rng := rand.New(rand.NewSource(42))
		counts := map[string]int{}
		for i := 0; i < 4000; i++ {
			counts[mix.pick(rng)]++
		}
		return counts
	}
	a, b := draw(), draw()
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("same seed, different draws: %v vs %v", a, b)
		}
	}
	if a["over"] != 0 || a["dist"] != 0 {
		t.Errorf("zero-weight classes drawn: %v", a)
	}
	// Jobs is weighted 2 of 4: expect roughly half, and strictly more
	// than either single-weight class.
	if a["jobs"] <= a["hot"] || a["jobs"] <= a["cold"] {
		t.Errorf("weights not respected: %v", a)
	}
}

func TestBuildPhaseReportSLO(t *testing.T) {
	s := newSampleSet()
	for i := 0; i < 95; i++ {
		s.record(10, "ok", "")
	}
	s.record(5000, "ok", "")
	s.record(5000, "timeout", "t-slow")
	s.record(12, "429", "")
	s.record(12, "429", "")
	s.record(12, "429", "")
	// 100 samples: 96 ok (one slow, untraced), 1 timeout (unexpected), 3
	// tolerated 429s.
	if id, ms := s.SlowestTrace(); id != "t-slow" || ms != 5000 {
		t.Errorf("SlowestTrace() = (%q, %v), want (t-slow, 5000)", id, ms)
	}
	pr := buildPhaseReport("inject", 3.0, s, []string{"429"}, SLO{MaxP99Ms: 100, MaxErrorRate: 0.02, MinRequests: 50}, -1)
	if pr.Requests != 100 {
		t.Fatalf("requests = %d, want 100", pr.Requests)
	}
	if pr.ErrorRate != 0.01 {
		t.Errorf("error rate = %v, want 0.01 (429s tolerated)", pr.ErrorRate)
	}
	// p99 nearest-rank over 100 samples is the 99th smallest: a 5000ms
	// outlier.
	if pr.P99Ms != 5000 {
		t.Errorf("p99 = %v, want 5000", pr.P99Ms)
	}
	if pr.Pass {
		t.Error("phase passed despite p99 5000ms > 100ms bound")
	}
	if len(pr.Violations) != 1 {
		t.Errorf("violations = %v, want exactly the p99 breach", pr.Violations)
	}

	// The same samples under a permissive SLO pass.
	pr2 := buildPhaseReport("inject", 3.0, s, []string{"429"}, SLO{MaxP99Ms: 6000, MaxErrorRate: 0.02, MinRequests: 50}, -1)
	if !pr2.Pass {
		t.Errorf("phase failed a satisfiable SLO: %v", pr2.Violations)
	}

	// MinRequests guards vacuous passes.
	empty := newSampleSet()
	pr3 := buildPhaseReport("warmup", 2.0, empty, nil, SLO{MinRequests: 10}, -1)
	if pr3.Pass {
		t.Error("empty phase passed a MinRequests SLO")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		code   int
		header string
		want   string
	}{
		{200, "", "ok"},
		{202, "", "ok"},
		{400, "", "4xx"},
		{404, "", "4xx"},
		{413, "", "413"},
		{429, "3", "429"},
		{429, "", "429_no_retry_after"},
		{429, "0", "429_no_retry_after"},
		{500, "", "5xx"},
		{503, "", "5xx"},
		{504, "", "timeout"},
	}
	for _, c := range cases {
		resp := &http.Response{StatusCode: c.code, Header: http.Header{}}
		if c.header != "" {
			resp.Header.Set("Retry-After", c.header)
		}
		if got := classify(resp, nil); got != c.want {
			t.Errorf("classify(%d, Retry-After=%q) = %q, want %q", c.code, c.header, got, c.want)
		}
	}
}

// TestScenarioRegistryValid pins the registry: every scenario validates,
// names are unique, and the fast subset is non-empty (CI gates on it).
func TestScenarioRegistryValid(t *testing.T) {
	seen := map[string]bool{}
	fast := 0
	for _, sc := range Scenarios() {
		if err := sc.validate(); err != nil {
			t.Errorf("scenario %q invalid: %v", sc.Name, err)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Fast {
			fast++
		}
	}
	if fast == 0 {
		t.Error("no fast scenarios: the CI gate would run nothing")
	}
	for _, name := range []string{"worker-kill", "slow-worker", "coordinator-restart", "queue-full", "oversize-flood", "concurrent-runs"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("scenario %q missing from the registry", name)
		}
	}
	if _, ok := Lookup("no-such"); ok {
		t.Error("Lookup invented a scenario")
	}
}

// TestSummaryJSONShape pins slo_report.json's top-level shape — the CI
// artifact consumers key off these names.
func TestSummaryJSONShape(t *testing.T) {
	identical := true
	sum := Summary{
		Pass: false,
		Reports: []Report{{
			Scenario:        "worker-kill",
			Seed:            61,
			RecoverySeconds: 1.5,
			ProbeIdentical:  &identical,
			Phases: []PhaseReport{{
				Name: "warmup", Requests: 10, Classes: map[string]int64{"ok": 10},
				CacheHitRate: -1, Pass: true,
			}},
			Pass:     false,
			Failures: []string{"phase inject: p99"},
		}},
	}
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"pass", "reports"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("summary JSON missing %q: %s", key, data)
		}
	}
	var rep []map[string]json.RawMessage
	if err := json.Unmarshal(doc["reports"], &rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scenario", "seed", "phases", "recovery_seconds", "probe_identical", "pass", "failures"} {
		if _, ok := rep[0][key]; !ok {
			t.Errorf("report JSON missing %q: %s", key, doc["reports"])
		}
	}
}

func TestScenarioValidateCatchesBadDefinitions(t *testing.T) {
	good := oversizeFlood()
	if err := good.validate(); err != nil {
		t.Fatalf("known-good scenario invalid: %v", err)
	}
	bad := good
	bad.Phases = bad.Phases[:2]
	if bad.validate() == nil {
		t.Error("2-phase scenario validated")
	}
	bad = good
	bad.Mix = Mix{}
	if bad.validate() == nil {
		t.Error("empty-mix scenario validated")
	}
	bad = good
	bad.Probe = true // no workers
	if bad.validate() == nil {
		t.Error("probe without a fleet validated")
	}
	bad = good
	bad.Mix.Distributed = 1 // no workers
	if bad.validate() == nil {
		t.Error("distributed traffic without workers validated")
	}
}

// TestRelayDelaysWhatTheDialerSends: what the dialing side writes reaches
// the upstream whole, in order and no sooner than the delay; the answer
// comes back without it; Close cuts the link.
func TestRelayDelaysWhatTheDialerSends(t *testing.T) {
	const delay = 200 * time.Millisecond
	up, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	r, err := StartRelay(up.Addr().String(), delay)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := up.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	sent := time.Now()
	for _, s := range []string{"ab", "cd", "ef"} {
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 6)
	if _, err := io.ReadFull(peer, got); err != nil || string(got) != "abcdef" {
		t.Fatalf("upstream read %q, %v", got, err)
	}
	if d := time.Since(sent); d < delay {
		t.Errorf("bytes arrived after %v, before the %v delay", d, delay)
	}

	sent = time.Now()
	if _, err := peer.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, got[:1]); err != nil || got[0] != 'x' {
		t.Fatalf("dialer read %q, %v", got[:1], err)
	}
	if d := time.Since(sent); d >= delay {
		t.Errorf("the answer took %v, want it undelayed", d)
	}

	r.Close()
	if _, err := conn.Read(got); err == nil {
		t.Error("the dialer's connection outlived Close")
	}
}
