package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestHTTPRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, Options{Window: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Create a session.
	resp, body := postJSON(t, ts, "/v1/session", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, body)
	}
	var sess map[string]string
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	id := sess["session"]
	if id == "" {
		t.Fatal("empty session id")
	}

	// Query through it.
	resp, body = postJSON(t, ts, "/v1/query", queryRequest{Session: id, SQL: "select n_name from nation where n_nationkey < 3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Statements) != 1 || len(qr.Statements[0].Rows) != 3 {
		t.Fatalf("unexpected result shape: %s", body)
	}
	if qr.Statements[0].Columns[0] != "n_name" {
		t.Errorf("columns = %v", qr.Statements[0].Columns)
	}

	// Stats endpoint reflects the request.
	resp, body = postJSON(t, ts, "/v1/stats", nil)
	_ = resp
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]float64
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if stats["server_requests_total"] < 1 {
		t.Errorf("server_requests_total = %v, want >= 1", stats["server_requests_total"])
	}

	// Unknown session → 404 with typed body.
	resp, body = postJSON(t, ts, "/v1/query", queryRequest{Session: "nope", SQL: "select n_name from nation"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: %d %s", resp.StatusCode, body)
	}

	// Parse error → 400 with error body.
	resp, body = postJSON(t, ts, "/v1/query", queryRequest{Session: id, SQL: "selec nonsense"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad SQL: %d %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code == "" {
		t.Errorf("error body missing code: %s", body)
	}

	// Delete the session; querying it again is a 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("session delete: %d", dresp.StatusCode)
	}
	resp, body = postJSON(t, ts, "/v1/query", queryRequest{Session: id, SQL: "select n_name from nation"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("query on deleted session: %d %s", resp.StatusCode, body)
	}
}

// TestHTTPAfterClose: once the server has drained, its routes answer with
// the typed retryable shutdown error, 503, and the session the client held
// is still known, so its query reaches admission and is refused there.
func TestHTTPAfterClose(t *testing.T) {
	s, _ := newTestServer(t, Options{Window: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts, "/v1/session", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, body)
	}
	var sess map[string]string
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/session", nil},
		{"/v1/query", queryRequest{Session: sess["session"], SQL: "select n_name from nation"}},
	} {
		resp, body := postJSON(t, ts, c.path, c.body)
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("POST %s after Close: %d %s", c.path, resp.StatusCode, body)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != "shutting_down" || !eb.Error.Retryable {
			t.Errorf("POST %s after Close: %d %s, want 503 shutting_down retryable", c.path, resp.StatusCode, body)
		}
	}
}
