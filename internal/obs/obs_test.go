package obs

import (
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"WARN": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestNewLogger(t *testing.T) {
	var b strings.Builder
	log, err := NewLogger(&b, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("dropped")
	log.Warn("kept", "job", 7)
	if strings.Contains(b.String(), "dropped") {
		t.Error("info record passed a warn-level logger")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatalf("json format did not produce JSON: %v (%q)", err, b.String())
	}
	if rec["msg"] != "kept" || rec["job"] != float64(7) {
		t.Errorf("record = %v", rec)
	}
	if _, err := NewLogger(io.Discard, "info", "xml"); err == nil {
		t.Error("NewLogger accepted an unknown format")
	}
}

// TestDebugMux scrapes the endpoints the binaries expose behind -debug-addr.
func TestDebugMux(t *testing.T) {
	NewCounter("muxtest_total", "present in the default registry").Inc()
	healthy := true
	srv := httptest.NewServer(NewMux(func() Health {
		return Health{OK: healthy, Payload: map[string]any{"component": "test"}}
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type %q", ct)
	}
	if !strings.Contains(string(body), "muxtest_total 1") {
		t.Errorf("/metrics misses the registered family:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || h["ok"] != true || h["component"] != "test" {
		t.Errorf("/healthz = %d %v", resp.StatusCode, h)
	}
	healthy = false
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unhealthy /healthz status %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

// TestCountConn pushes bytes through a counted net.Pipe and checks both
// directions are tallied.
func TestCountConn(t *testing.T) {
	client, server := net.Pipe()
	var sent, recv Counter
	cc := CountConn(client, &sent, &recv)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 16)
		n, _ := server.Read(buf)
		server.Write(buf[:n])
	}()
	if _, err := cc.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := cc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	cc.Close()
	server.Close()
	if sent.Value() != 5 || recv.Value() != int64(n) || n != 5 {
		t.Errorf("sent=%d recv=%d n=%d, want 5 everywhere", sent.Value(), recv.Value(), n)
	}
}

func TestVersion(t *testing.T) {
	if Version() == "" {
		t.Error("Version() is empty")
	}
}
