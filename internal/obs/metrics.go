package obs

import (
	"encoding/json"
	"net"
	"net/http"
)

// MetricsServer is a running metrics listener; Close stops it.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address.
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close stops the listener.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// StartMetrics serves snapshot() as one indented JSON document on addr
// (":0" picks a free port) in the background — the expvar-style endpoint
// the daemons expose with -metrics (ivmnode: its counters and store
// footprint; ivmserve: epochs, snapshot retention, read cache, admission,
// and the adaptive, durable and fast-path counters). Every path answers the
// same snapshot, so curl needs no exact route.
func StartMetrics(addr string, snapshot func() any) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding a freshly built snapshot can only fail on a broken
		// connection; nothing to do about that here.
		_ = enc.Encode(snapshot())
	})}
	go func() {
		// Serve exits with ErrServerClosed on Close; other errors mean the
		// listener died, which the owner notices through failed scrapes.
		_ = srv.Serve(ln)
	}()
	return &MetricsServer{ln: ln, srv: srv}, nil
}
