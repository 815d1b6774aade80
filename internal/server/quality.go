package server

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// tableQuality is the cached quality-of-data profile of one table at one
// data version. The paper's premise is that data carries objective quality
// indicators ("source", "creation_time", ...) alongside values; these
// aggregates surface that metadata operationally: how much data there is,
// where it came from, how old it is, and how completely it is tagged.
type tableQuality struct {
	ver     uint64
	rows    int64
	cells   int64
	tagged  int64            // cells carrying at least one indicator tag
	sources map[string]int64 // rows credited to each source
	oldest  time.Time        // min/max creation_time tag across cells;
	newest  time.Time        // zero when no cell carries one
}

// qualityCollector derives per-table quality gauges from the catalog on
// demand. Profiles are cached keyed by each table's DataVersion, so a
// scrape after a quiet period costs one atomic load per table, while any
// DML (insert/update/delete bumps the version) triggers a recompute of
// exactly the mutated tables on the next scrape.
type qualityCollector struct {
	cat *storage.Catalog
	mu  sync.Mutex
	byT map[string]*tableQuality
}

func newQualityCollector(cat *storage.Catalog) *qualityCollector {
	return &qualityCollector{cat: cat, byT: make(map[string]*tableQuality)}
}

// profile returns the table's quality profile, recomputing it only when the
// table's data version moved since the last call.
func (q *qualityCollector) profile(name string, tbl *storage.Table) *tableQuality {
	ver := tbl.DataVersion()
	q.mu.Lock()
	cached, ok := q.byT[name]
	q.mu.Unlock()
	if ok && cached.ver == ver {
		return cached
	}
	tq := computeQuality(tbl, ver)
	q.mu.Lock()
	q.byT[name] = tq
	q.mu.Unlock()
	return tq
}

func computeQuality(tbl *storage.Table, ver uint64) *tableQuality {
	tq := &tableQuality{ver: ver, sources: make(map[string]int64)}
	var rowSources []string
	// One zero-clone capture of the whole table; the pass reads only the
	// tag and polygen-source runs beside the values and never builds a row.
	views := tbl.SnapshotCols(tbl.Schema().ColIndexes())
	for i := range views {
		cs := &views[i]
		live := cs.Live()
		tq.rows += int64(live)
		tq.cells += int64(live * len(cs.Cols))
		for k := 0; k < live; k++ {
			off := k
			if cs.Sel != nil {
				off = int(cs.Sel[k])
			}
			rowSources = rowSources[:0]
			for j := range cs.Cols {
				r := &cs.Cols[j]
				if r.Srcs != nil {
					rowSources = append(rowSources, r.Srcs[off]...)
				}
				if r.Tags == nil || r.Tags[off].IsEmpty() {
					continue
				}
				tags := r.Tags[off]
				tq.tagged++
				if v, ok := tags.Get("source"); ok && v.Kind() == value.KindString {
					rowSources = append(rowSources, v.AsString())
				}
				if v, ok := tags.Get("creation_time"); ok && v.Kind() == value.KindTime {
					t := v.AsTime()
					if tq.oldest.IsZero() || t.Before(tq.oldest) {
						tq.oldest = t
					}
					if tq.newest.IsZero() || t.After(tq.newest) {
						tq.newest = t
					}
				}
			}
			// Credit each source once per row, whichever cells named it and
			// whether it arrived as a "source" tag or a polygen source set.
			for _, src := range tag.NewSources(rowSources...) {
				tq.sources[src]++
			}
		}
	}
	return tq
}

// publish rebuilds the qqld_table_* gauge family in reg from the current
// catalog. Dropping the prefix first means gauges for dropped tables and
// vanished sources disappear instead of sticking at their last value.
func (q *qualityCollector) publish(reg *metrics.Registry) {
	reg.DropPrefix("qqld_table_")
	for _, name := range q.cat.Names() {
		tbl, ok := q.cat.Get(name)
		if !ok {
			continue
		}
		tq := q.profile(name, tbl)
		lt := metrics.L("table", name)
		reg.Gauge("qqld_table_rows", lt).SetInt(tq.rows)
		reg.Gauge("qqld_table_cells", lt).SetInt(tq.cells)
		reg.Gauge("qqld_table_tagged_cells", lt).SetInt(tq.tagged)
		completeness := 0.0
		if tq.cells > 0 {
			completeness = float64(tq.tagged) / float64(tq.cells)
		}
		reg.Gauge("qqld_table_tag_completeness", lt).Set(completeness)
		if !tq.oldest.IsZero() {
			reg.Gauge("qqld_table_oldest_creation_seconds", lt).SetInt(tq.oldest.Unix())
			reg.Gauge("qqld_table_newest_creation_seconds", lt).SetInt(tq.newest.Unix())
		}
		for src, n := range tq.sources {
			reg.Gauge("qqld_table_source_rows", lt, metrics.L("source", src)).SetInt(n)
		}
	}
}

func registerQualityHelp(reg *metrics.Registry) {
	reg.Help("qqld_table_rows", "Live rows per table.")
	reg.Help("qqld_table_cells", "Data cells per table (rows x columns).")
	reg.Help("qqld_table_tagged_cells", "Cells carrying at least one quality indicator tag.")
	reg.Help("qqld_table_tag_completeness", "Fraction of cells carrying quality tags.")
	reg.Help("qqld_table_oldest_creation_seconds", "Oldest creation_time tag in the table, unix seconds.")
	reg.Help("qqld_table_newest_creation_seconds", "Newest creation_time tag in the table, unix seconds.")
	reg.Help("qqld_table_source_rows", "Rows crediting each data source (source tag or polygen source set).")
}
