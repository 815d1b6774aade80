// Observability endpoint: qqld can expose its metrics registry, a JSON
// stats snapshot and the standard Go profiler over a second listener
// (qqld -metrics <addr>), kept separate from the query port so operators
// can firewall it independently and a misbehaving scrape can never wedge
// the wire protocol.

package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// MetricsHandler returns the HTTP handler behind qqld -metrics:
//
//	/metrics       Prometheus text exposition (counters, latency summaries,
//	               plan-cache effectiveness, per-table data-quality gauges)
//	/stats         the same registry plus the Stats struct as JSON
//	/debug/pprof/  net/http/pprof (profile, heap, trace, ...)
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.scrape()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		s.scrape()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Server  Stats             `json:"server"`
			Metrics *metricsSnapshotJ `json:"metrics"`
		}{s.Stats(), &metricsSnapshotJ{s}})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// metricsSnapshotJ defers registry serialization to encode time so /stats
// reuses Registry.MarshalJSON without copying.
type metricsSnapshotJ struct{ s *Server }

func (m *metricsSnapshotJ) MarshalJSON() ([]byte, error) {
	return m.s.reg.MarshalJSON()
}

// scrape refreshes the derived series — server counter gauges, plan-cache
// stats and per-table quality gauges — immediately before exposition.
// Request counters and latency histograms are recorded inline on the query
// path and need no refresh.
func (s *Server) scrape() {
	st := s.Stats()
	s.reg.Gauge("qqld_connections_active").SetInt(st.Active)
	s.reg.Gauge("qqld_connections_accepted_total").SetInt(st.Accepted)
	s.reg.Gauge("qqld_connections_rejected_total").SetInt(st.Rejected)
	s.reg.Gauge("qqld_queries_total").SetInt(st.Queries)
	s.reg.Gauge("qqld_query_errors_total").SetInt(st.Errors)
	s.reg.Gauge("qqld_batches_total").SetInt(st.Batches)
	s.reg.Gauge("qqld_plan_cache_hits_total", metrics.L("tier", "plan")).SetInt(int64(st.Cache.PlanHits))
	s.reg.Gauge("qqld_plan_cache_misses_total", metrics.L("tier", "plan")).SetInt(int64(st.Cache.PlanMisses))
	s.reg.Gauge("qqld_plan_cache_invalidations_total").SetInt(int64(st.Cache.PlanInvalidations))
	s.reg.Gauge("qqld_plan_cache_entries", metrics.L("tier", "plan")).SetInt(int64(st.Cache.PlanEntries))
	s.reg.Gauge("qqld_tuple_clones_total").SetInt(storage.TupleClones())
	if w := s.cfg.WAL; w != nil {
		ws := w.Stats()
		s.reg.Gauge("qqld_wal_appends_total").SetInt(int64(ws.Appends))
		s.reg.Gauge("qqld_wal_commits_total").SetInt(int64(ws.Commits))
		s.reg.Gauge("qqld_wal_fsyncs_total").SetInt(int64(ws.Fsyncs))
		s.reg.Gauge("qqld_wal_bytes_total").SetInt(int64(ws.Bytes))
		s.reg.Gauge("qqld_wal_group_max").SetInt(int64(ws.GroupMax))
		s.reg.Gauge("qqld_wal_checkpoints_total").SetInt(int64(ws.Checkpoints))
		s.reg.Gauge("qqld_wal_checkpoint_errors_total").SetInt(int64(ws.CkptErrs))
		s.reg.Gauge("qqld_wal_durable_seq").SetInt(int64(ws.DurableSeq))
		s.reg.Gauge("qqld_wal_appended_seq").SetInt(int64(ws.AppendedSeq))
		s.reg.Gauge("qqld_wal_segments").SetInt(ws.Segments)
		rs := w.RecoveryStats()
		s.reg.Gauge("qqld_wal_recovery_seconds").Set(rs.Duration.Seconds())
		s.reg.Gauge("qqld_wal_recovery_snapshot_seconds").Set(rs.SnapshotLoad.Seconds())
		fallback := int64(0)
		if rs.SnapshotFallback {
			fallback = 1
		}
		s.reg.Gauge("qqld_wal_recovery_snapshot_fallback").SetInt(fallback)
		s.reg.Gauge("qqld_wal_recovery_replayed").SetInt(int64(rs.Replayed))
	}
	s.quality.publish(s.reg)
}
