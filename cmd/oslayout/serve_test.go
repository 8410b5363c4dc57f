package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestHTTPServerTimeouts checks the daemon's listener timeouts at short
// durations: a connection stalled in the middle of its request headers is
// closed by the server, while an event stream that outlasts both the
// header and the idle timeout is delivered whole.
func TestHTTPServerTimeouts(t *testing.T) {
	const timeout = 100 * time.Millisecond
	const events = 5
	mux := http.NewServeMux()
	// Like the job event stream, the handler stops when its request's
	// context ends.
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for i := 0; i < events; i++ {
			fmt.Fprintf(w, "data: %d\n\n", i)
			w.(http.Flusher).Flush()
			select {
			case <-r.Context().Done():
				return
			case <-time.After(timeout):
			}
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(mux, timeout, timeout)
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /events HTTP/1.1\r\nHost: daemon\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(50 * timeout))
	var ne net.Error
	switch _, err := conn.Read(make([]byte, 1)); {
	case err == nil:
		t.Error("the server answered a request whose headers never finished")
	case errors.As(err, &ne) && ne.Timeout():
		t.Error("the server kept a connection stalled mid-header open")
	}

	start := time.Now()
	resp, err := http.Get("http://" + ln.Addr().String() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			got++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("event stream broke after %d events: %v", got, err)
	}
	if got != events {
		t.Errorf("event stream delivered %d events, want %d", got, events)
	}
	if elapsed := time.Since(start); elapsed < 2*timeout {
		t.Errorf("event stream lasted %v, which does not outlast the %v timeouts", elapsed, timeout)
	}
}
