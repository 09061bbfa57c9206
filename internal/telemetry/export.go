package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the hub's HTTP surface:
//
//	GET /metrics            Prometheus text exposition
//	GET /snapshot           JSON RegistrySnapshot
//	GET /traces             JSON list of root intent ids
//	GET /trace?root=ID      JSON Trace assembled from the live tracer
//	GET /trace?root=ID&format=text   rendered tree instead of JSON
//	GET /debug/vars         expvar (stdlib metrics)
//	GET /debug/pprof/...    stdlib profiling endpoints
//
// Mount it on a mux of your own or pass it to Serve.
func Handler(h *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = h.Registry.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(h.Registry.Snapshot())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		roots := Roots(h.Tracer.Spans())
		if roots == nil {
			roots = []string{}
		}
		_ = json.NewEncoder(w).Encode(roots)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		root := r.URL.Query().Get("root")
		if root == "" {
			http.Error(w, "missing root parameter", http.StatusBadRequest)
			return
		}
		tr := Assemble(h.Tracer.Spans(), root)
		if len(tr.Spans) == 0 {
			http.Error(w, "no spans for root "+root, http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			tr.Render(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(tr)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a started telemetry endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the hub's Handler on addr (e.g. "127.0.0.1:0") and returns
// the listening server. Close it to stop.
func Serve(addr string, h *Hub) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(h)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the server's listen address ("127.0.0.1:43210").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
