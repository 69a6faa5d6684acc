package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the opt-in observability HTTP listener:
//
//	/metrics        Prometheus text exposition of the registry
//	/statusz        JSON: metrics and histogram quantiles
//	/tracez         plain-text reconfiguration timelines (when a Tracer is attached)
//	/debug/pprof/*  the standard pprof handlers
//
// It binds its own mux (never http.DefaultServeMux), so importing this
// package does not leak handlers into unrelated servers.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts the debug listener on addr ("127.0.0.1:0" picks an
// ephemeral port; read it back with Addr). tr may be nil.
func ServeDebug(addr string, reg *Registry, tr *Tracer) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w)
	})
	if tr != nil {
		mux.HandleFunc("/tracez", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			tr.RenderTimeline(w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "vsgm debug listener: /metrics /statusz /tracez /debug/pprof/")
	})
	s := &DebugServer{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the listener's actual address.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *DebugServer) Close() error { return s.srv.Close() }
