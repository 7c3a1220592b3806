package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// twoStar is the edge list of vertices 0 and k+1 each pointing to the
// same k vertices 1..k: under LPL one layer holds the two hubs and one the
// k shared successors.
func twoStar(k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d\n", k+2, 2*k)
	for j := 1; j <= k; j++ {
		fmt.Fprintf(&b, "0 %d\n%d %d\n", j, k+1, j)
	}
	return b.String()
}

// TestRenderTwoStar: drawing the two-star at k = 8,000 (a 134 KB body)
// takes work proportional to the graph. The switch pass used to recount
// both gaps of a layer for every candidate swap, quadratic in the width
// of the k-vertex layer: 30 s, past the default deadline the drawing
// never checks.
func TestRenderTwoStar(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := twoStar(8000)
	start := time.Now()
	resp, out := postLayer(t, ts, "format=edges&algo=lpl&render=svg", body)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.200s", resp.StatusCode, out)
	}
	var r testResponse
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(r.SVG, "<polyline"); got != 16000 {
		t.Errorf("drew %d edges, want 16000", got)
	}
	if elapsed > 5*time.Second {
		t.Errorf("rendering the %d-byte two-star took %v, want under 5s", len(body), elapsed)
	}
}

// fan is the edge list of the chain 0→1→…→n−1 plus the edges 0→k for
// k ≥ 2: under LPL edge 0→k skips k−1 layers, so its proper graph holds
// about n²/2 dummies from an O(n) body.
func fan(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d\n", n, 2*n-3)
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "%d %d\n", i, i+1)
	}
	for k := 2; k < n; k++ {
		fmt.Fprintf(&b, "0 %d\n", k)
	}
	return b.String()
}

// TestRenderBoundsDrawing: a drawing whose estimate exceeds
// maxRequestBytes is refused 413 once the layering exists and before Draw
// allocates — on /layer, as a failed job and as a failed bulk line, with
// one message — and its trace still closes the render span. At n = 1,000
// the 14 KB fan body used to draw half a million dummies and allocate
// some 660 MB, and two vertices labelled with 2.2 MB of "&" 243 MB as SVG
// (each "&" is "&amp;" in the SVG and "\u0026amp;" in the body); one
// estimate, the SVG's, refuses both modes. The fan at n = 400 is drawn.
func TestRenderBoundsDrawing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const fanMsg = "drawing memory estimate 310.2 MiB (n=1000, m=1997, dummies=498501, label bytes=3890) exceeds the 256 MiB limit"
	amps := strings.Repeat("&", 1100000)
	labels := `digraph { a [label="` + amps + `"]; b [label="` + amps + `"]; a -> b }`
	const labelMsg = "drawing memory estimate 318.9 MiB (n=2, m=1, dummies=0, label bytes=2200000) exceeds the 256 MiB limit"
	for _, c := range []struct{ query, body, want string }{
		{"format=edges&algo=lpl", fan(1000), fanMsg},
		{"algo=lpl", labels, labelMsg},
	} {
		for _, mode := range []string{"svg", "ascii"} {
			resp, out := postLayer(t, ts, c.query+"&render="+mode, c.body)
			if msg := strings.TrimSuffix(string(out), "\n"); resp.StatusCode != http.StatusRequestEntityTooLarge || msg != c.want {
				t.Fatalf("%s&render=%s: /layer answered %d %.300q, want 413 %q", c.query, mode, resp.StatusCode, msg, c.want)
			}
			spans := spanCounts(getTrace(t, ts.URL, resp.Header.Get("X-Request-ID")))
			if spans["render"] != 1 {
				t.Errorf("%s&render=%s: refused drawing's trace spans %v, want one render span", c.query, mode, spans)
			}
		}
	}
	query := "format=edges&algo=lpl&render=svg"
	jresp, job := postJob(t, ts, query, fan(1000))
	if jresp.StatusCode != http.StatusAccepted {
		t.Fatalf("/jobs answered %d", jresp.StatusCode)
	}
	if _, st := pollUntilTerminal(t, ts, job.ID); st.State != "failed" || st.Error != fanMsg {
		t.Errorf("job ended %s with %q, want failed with %q", st.State, st.Error, fanMsg)
	}
	_, lines := postBulk(t, ts, "", bulkBody([2]string{query, fan(1000)}))
	var res bulkResult
	if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &res) != nil || res.State != "failed" || res.Error != fanMsg {
		t.Errorf("bulk answered %q, want one failed line with %q", lines, fanMsg)
	}
	if resp, out := postLayer(t, ts, query, fan(400)); resp.StatusCode != http.StatusOK {
		t.Errorf("n=400: status %d: %.200s", resp.StatusCode, out)
	}
}
