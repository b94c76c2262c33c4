// Package ops is the operator surface of a deployed MIND node: a small
// HTTP server exposing health, readiness, statistics, and introspection
// over the node, its managed TCP transport, and (when present) its
// streaming ingest engine. cmd/mindnode serves it under -http-listen.
//
// Endpoints:
//
//	GET /healthz  200 "ok" while the process serves (liveness)
//	GET /readyz   200 once the node has joined the overlay, else 503
//	              (readiness: a node that lost its overlay membership
//	              stops receiving traffic from a health-checking LB)
//	GET /stats    JSON: node counters (stored/forwarded/replicated,
//	              reliable-layer, shed counters), membership-epoch and
//	              split-brain reconciliation state, reversion counters,
//	              transport health, admission stats, ingest stats when
//	              enabled
//	GET /peers    JSON: managed outbound peer table (lifecycle state,
//	              queue depth, drop counters per peer), inbound
//	              connection count, and the overlay contact table
//	GET /indices  JSON: installed indices with versions, per-version
//	              tree epochs (and retirement markers), history-pointer
//	              targets, record counts, and per version the shape of
//	              every store ladder (level lengths, tail fill,
//	              carries and rows carried — the write amplification)
//
// Everything is read-only; the server never mutates node state.
package ops

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"mind/internal/ingest"
	"mind/internal/mind"
	"mind/internal/transport/tcpnet"
)

// Server is one node's HTTP operator surface.
type Server struct {
	node *mind.Node
	ep   *tcpnet.Endpoint
	eng  *ingest.Engine

	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Serve starts the operator surface on addr. ep and eng are optional:
// nil disables the corresponding sections of /stats and /peers (a
// simnet-backed node has no managed TCP transport; ingest may not be
// enabled).
func Serve(addr string, node *mind.Node, ep *tcpnet.Endpoint, eng *ingest.Engine) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	s := &Server{node: node, ep: ep, eng: eng, ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/peers", s.handlePeers)
	mux.HandleFunc("/indices", s.handleIndices)
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      10 * time.Second,
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's concrete listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.node.Joined() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not joined")
		return
	}
	fmt.Fprintln(w, "ready")
}

// statsView is the /stats document.
type statsView struct {
	Addr      string  `json:"addr"`
	Code      string  `json:"code"`
	Joined    bool    `json:"joined"`
	UptimeSec float64 `json:"uptime_sec"`

	Node      mind.Stats  `json:"node"`
	Overlay   overlayView `json:"overlay"`
	Reversion interface{} `json:"reversion"`
	Transport interface{} `json:"transport,omitempty"`
	Ingest    interface{} `json:"ingest,omitempty"`
}

// overlayView is the membership-fencing state an operator checks when a
// partition heals: the region epoch this node's ownership claims carry,
// the peers it declared dead and still probes for reconnection, and the
// dispute counters of the split-brain reconciliation protocol.
type overlayView struct {
	Epoch              uint64   `json:"epoch"`
	Estranged          []string `json:"estranged,omitempty"`
	CollisionsDetected uint64   `json:"collisions_detected"`
	CollisionsWon      uint64   `json:"collisions_won"`
	CollisionsLost     uint64   `json:"collisions_lost"`
	StepDowns          uint64   `json:"step_downs"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	ns := s.node.Stats()
	if math.IsNaN(ns.BatchOccupancy) {
		ns.BatchOccupancy = 0 // JSON has no NaN; zero means "no batches yet"
	}
	snap := s.node.Overlay().Snapshot()
	v := statsView{
		Addr:      s.node.Addr(),
		Code:      s.node.Code().String(),
		Joined:    s.node.Joined(),
		UptimeSec: time.Since(s.start).Seconds(),
		Node:      ns,
		Overlay: overlayView{
			Epoch:              snap.Epoch,
			Estranged:          snap.Estranged,
			CollisionsDetected: snap.Recon.CollisionsDetected,
			CollisionsWon:      snap.Recon.CollisionsWon,
			CollisionsLost:     snap.Recon.CollisionsLost,
			StepDowns:          snap.Recon.StepDowns,
		},
		Reversion: s.node.ReversionStats(),
	}
	if s.ep != nil {
		v.Transport = s.ep.Health()
	}
	if s.eng != nil {
		v.Ingest = s.eng.Stats()
	}
	writeJSON(w, v)
}

// contactView is one overlay contact-table entry, flattened for JSON.
type contactView struct {
	Addr        string    `json:"addr"`
	Code        string    `json:"code"`
	LastSeen    time.Time `json:"last_seen"`
	Probing     bool      `json:"probing,omitempty"`
	Unreachable bool      `json:"unreachable,omitempty"`
}

// peersView is the /peers document: the transport's managed-connection
// table next to the overlay's logical contact table — the two layers an
// operator has to line up when a node looks partitioned.
type peersView struct {
	Transport interface{}   `json:"transport,omitempty"`
	Overlay   []contactView `json:"overlay"`
}

func (s *Server) handlePeers(w http.ResponseWriter, _ *http.Request) {
	v := peersView{}
	if s.ep != nil {
		v.Transport = s.ep.NetStats()
	}
	snap := s.node.Overlay().Snapshot()
	v.Overlay = make([]contactView, 0, len(snap.Contacts))
	for _, c := range snap.Contacts {
		v.Overlay = append(v.Overlay, contactView{
			Addr:        c.Addr,
			Code:        c.Code.String(),
			LastSeen:    c.LastSeen,
			Probing:     c.Probing,
			Unreachable: c.Unreachable,
		})
	}
	writeJSON(w, v)
}

func (s *Server) handleIndices(w http.ResponseWriter, _ *http.Request) {
	infos := s.node.IndexInfos()
	if infos == nil {
		infos = []mind.IndexInfo{}
	}
	writeJSON(w, infos)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
