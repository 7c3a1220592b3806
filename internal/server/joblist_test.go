package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// jobListView mirrors the GET /jobs document for decoding.
type jobListView struct {
	Jobs []struct {
		ID        string     `json:"id"`
		State     string     `json:"state"`
		Error     string     `json:"error"`
		Poll      string     `json:"poll"`
		Submitted time.Time  `json:"submitted"`
		Started   *time.Time `json:"started"`
		Finished  *time.Time `json:"finished"`
	} `json:"jobs"`
	Stats struct {
		Submitted int64 `json:"submitted"`
		Done      int64 `json:"done"`
	} `json:"stats"`
}

func getJobList(t *testing.T, ts *httptest.Server, query string) (*http.Response, jobListView) {
	t.Helper()
	url := ts.URL + "/jobs"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var view jobListView
	_ = json.Unmarshal(data, &view)
	return resp, view
}

// TestJobsListingEndToEnd submits jobs, lists them with and without a
// state filter, and checks the listed shape (ids in submission order,
// poll URLs, timestamps).
func TestJobsListingEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, first := postJob(t, ts, "seed=11&tours=2", demoDOT)
	_, second := postJob(t, ts, "seed=12&tours=2", demoDOT)
	pollUntilTerminal(t, ts, first.ID)
	pollUntilTerminal(t, ts, second.ID)

	resp, list := getJobList(t, ts, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list.Jobs))
	}
	if list.Jobs[0].ID != first.ID || list.Jobs[1].ID != second.ID {
		t.Errorf("listing out of submission order: %+v", list.Jobs)
	}
	for _, j := range list.Jobs {
		if j.State != "done" || j.Poll != "/jobs/"+j.ID {
			t.Errorf("job row: %+v", j)
		}
		if j.Submitted.IsZero() || j.Started == nil || j.Finished == nil {
			t.Errorf("job row missing timestamps: %+v", j)
		}
	}
	if list.Stats.Submitted != 2 || list.Stats.Done != 2 {
		t.Errorf("embedded stats: %+v", list.Stats)
	}

	// The state filter: everything is done, so queued is empty.
	if _, filtered := getJobList(t, ts, "state=done"); len(filtered.Jobs) != 2 {
		t.Errorf("state=done listed %d jobs", len(filtered.Jobs))
	}
	if _, filtered := getJobList(t, ts, "state=queued"); len(filtered.Jobs) != 0 {
		t.Errorf("state=queued listed %d jobs", len(filtered.Jobs))
	}
	if resp, _ := getJobList(t, ts, "state=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus state filter status %d", resp.StatusCode)
	}
}
