package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestServeDropsStalledHeaders: a client that opens a connection and
// never finishes its request headers is disconnected once the
// header-read timeout passes, instead of holding the connection open.
func TestServeDropsStalledHeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.NotFoundHandler(), 100*time.Millisecond, time.Second)
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept a connection with unfinished headers open for 10s")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("disconnected only after %v", d)
	}
}

func TestServeTimeoutsSet(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler(), readHeaderTimeout, idleTimeout)
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts unset: header %v idle %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatal("a write or whole-request timeout would cut long result streams")
	}
}
