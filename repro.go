// Package repro is a from-scratch Go implementation of the system described
// in "Data Quality Requirements Analysis and Modeling" (Wang, Kon & Madnick,
// ICDE 1993): the four-step data quality modeling methodology, the
// attribute-based cell-tagging data model and polygen source tagging it
// relies on, a quality-extended query language (QQL) with query-time
// filtering over quality indicators, and the data quality administrator's
// toolkit (profiles, grading, edit checks, SPC, certification, audit trail).
//
// This file is the public facade: it re-exports the handful of entry points
// a downstream user needs, while the full surface lives in the internal
// packages (internal/core is the methodology, internal/qql the query
// language, internal/storage the engine).
//
// Quick start:
//
//	db := repro.NewDatabase()
//	db.Session.MustExec(`CREATE TABLE customer (
//	    co_name string REQUIRED,
//	    employees int QUALITY (creation_time time, source string)
//	) KEY (co_name) STRICT`)
//	db.Session.MustExec(`INSERT INTO customer VALUES
//	    ('Fruit Co', 4004 @ {creation_time: t'1991-10-03', source: 'Nexis'})`)
//	rel, err := db.Session.Query(`SELECT co_name FROM customer
//	    WITH QUALITY employees@source != 'estimate'`)
//
// And the methodology:
//
//	pipeline, _ := repro.TradingPipeline() // the paper's Figures 3-5
//	result, _ := pipeline.Run()
//	fmt.Println(result.Document())
//
// Two access paths share the same engine. The embedded path above links the
// store into your process; the server path puts it behind qqld, a TCP
// daemon speaking the framed wire v2 protocol (pipelined request IDs, JSON
// or binary payloads), with one qql.Session per connection over a shared catalog and a shared
// prepared-plan cache:
//
//	db := repro.NewDatabase()
//	srv := repro.NewServer(db, repro.ServerConfig{Addr: "127.0.0.1:0"})
//	_ = srv.Listen()
//	go srv.Serve()
//
//	c, _ := repro.Dial(srv.Addr().String())
//	c.Exec(`CREATE TABLE t (a int)`)
//	cols, rows, _ := c.Query(`SELECT * FROM t`)
//	resps, _ := c.ExecBatch([]string{...})  // one frame, per-statement results
//
// See README.md for the wire protocol and the qqld daemon (cmd/qqld).
package repro

import (
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/er"
	"repro/internal/qql"
	"repro/internal/quality"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/tag"
	"repro/internal/value"
)

// Database bundles a storage catalog with a QQL session over it. With
// WithDurability the catalog is recovered from — and every mutation
// write-ahead logged to — an on-disk directory.
type Database struct {
	Catalog *storage.Catalog
	Session *qql.Session
	// WAL is the write-ahead log attached by WithDurability; nil for a
	// purely in-memory database.
	WAL *WAL
}

// WAL is a durable write-ahead log with group commit, snapshot
// checkpoints and crash recovery (internal/storage/wal).
type WAL = wal.Log

// Fsync modes for WithDurability (and qqld -fsync).
const (
	// FsyncGroup coalesces concurrent commits into one fsync (default).
	FsyncGroup = "group"
	// FsyncAlways issues one fsync per commit.
	FsyncAlways = "always"
	// FsyncOff never fsyncs; a crash may lose acknowledged writes.
	FsyncOff = "off"
)

// NewDatabase creates an empty in-memory database with a fresh session.
func NewDatabase() *Database {
	cat := storage.NewCatalog()
	return &Database{Catalog: cat, Session: qql.NewSession(cat)}
}

// At pins the session clock (NOW(), AGE()) and returns the database for
// chaining; use it for reproducible runs. Without it the clock is
// re-sampled from the wall clock at every statement.
func (d *Database) At(now time.Time) *Database {
	d.Session.SetNow(now)
	return d
}

// WithDurability makes the database durable: it opens (recovering if the
// directory already holds a log) a write-ahead log in dir, swaps in the
// recovered catalog, and rebuilds the session so every mutation is
// logged and committed per fsync ("group", "always" or "off"; see the
// Fsync constants) before Exec returns. Call Close when done.
func (d *Database) WithDurability(dir, fsync string) (*Database, error) {
	mode, err := wal.ParseFsyncMode(fsync)
	if err != nil {
		return nil, err
	}
	l, err := wal.Open(dir, wal.Options{Fsync: mode})
	if err != nil {
		return nil, err
	}
	d.WAL = l
	d.Catalog = l.Catalog()
	d.Session = qql.NewSession(d.Catalog)
	d.Session.SetDurability(l)
	return d, nil
}

// Close flushes and closes the write-ahead log, if any. The database
// remains queryable in memory afterwards, but mutations will fail.
func (d *Database) Close() error {
	if d.WAL == nil {
		return nil
	}
	return d.WAL.Close()
}

// DefaultPlanCacheSize is the conventional plan cache entry cap;
// pass it to WithPlanCache (or ServerConfig.CacheSize) for "the default".
const DefaultPlanCacheSize = qql.DefaultCacheSize

// WithPlanCache attaches a fresh plan cache of n entries
// (pass DefaultPlanCacheSize for the conventional default; n <= 0 attaches
// a disabled cache) to the embedded session and returns the database for
// chaining. Server sessions get a shared cache automatically.
func (d *Database) WithPlanCache(n int) *Database {
	d.Session.SetPlanCache(qql.NewPlanCache(n))
	return d
}

// WithParallelism sets the scan fan-out degree for large unindexed table
// scans (n <= 0 restores the default of one worker per core, 1 forces
// serial scans) and returns the database for chaining.
func (d *Database) WithParallelism(n int) *Database {
	d.Session.SetParallelism(n)
	return d
}

// Serving types (internal/server): qqld as a library.
type (
	// Server serves QQL over TCP with per-connection sessions, a shared
	// catalog and a shared plan cache.
	Server = server.Server
	// ServerConfig tunes addr, connection cap, cache size, clock, per-conn
	// pipeline depth (MaxInFlight), response size cap (MaxResultBytes) and
	// response encoding.
	ServerConfig = server.Config
	// ServerStats snapshots the server counters.
	ServerStats = server.Stats
	// Client is a reusable, pipelined client connection to a qqld server;
	// Do/Query/Exec are synchronous, DoAsync/ExecBatch expose the
	// pipeline.
	Client = client.Client
	// ClientOptions selects the client's payload encoding, pipeline depth,
	// dial timeout and dial retries.
	ClientOptions = client.Options
	// ClientPending is an in-flight pipelined request; Wait blocks for its
	// response.
	ClientPending = client.Pending
	// WireResponse is one per-statement server response (used by
	// Client.Do and Client.ExecBatch results).
	WireResponse = wire.Response
	// PlanCache memoizes query compilation across sessions: schema-versioned
	// bound single-SELECT plans, invalidated by DDL.
	PlanCache = qql.PlanCache
)

// Wire v2 payload encodings, for ClientOptions.Encoding (and, with
// "auto", ServerConfig.Encoding).
const (
	// WireEncodingJSON carries JSON payloads inside v2 frames.
	WireEncodingJSON = "json"
	// WireEncodingBinary carries the compact typed-cell codec (default).
	WireEncodingBinary = "binary"
)

// NewServer creates a qqld server over the database's catalog; start it
// with Listen + Serve and stop it with Shutdown.
func NewServer(d *Database, cfg ServerConfig) *Server { return server.New(d.Catalog, cfg) }

// Dial connects to a qqld server at addr ("host:port") with the default
// options: binary encoding, pipelined.
func Dial(addr string) (*Client, error) { return client.Dial(addr) }

// DialOptions connects with explicit options — e.g.
// ClientOptions{Encoding: WireEncodingJSON} for human-readable payloads, or
// ClientOptions{MaxInFlight: 256} to deepen the pipeline.
func DialOptions(addr string, o ClientOptions) (*Client, error) { return client.DialOptions(addr, o) }

// Core methodology types (internal/core).
type (
	// Pipeline runs the paper's Steps 2-4 plus compilation.
	Pipeline = core.Pipeline
	// PipelineResult bundles all methodology documents.
	PipelineResult = core.PipelineResult
	// ParameterView is the Step 2 output (Figure 4).
	ParameterView = core.ParameterView
	// QualityView is the Step 3 output (Figure 5).
	QualityView = core.QualityView
	// QualitySchema is the Step 4 output.
	QualitySchema = core.QualitySchema
	// Integrator performs Step 4 view integration.
	Integrator = core.Integrator
)

// ER modeling types (internal/er, methodology Step 1).
type (
	// Model is an ER application view.
	Model = er.Model
	// Entity is an ER entity type.
	Entity = er.Entity
	// Relationship is a binary ER relationship.
	Relationship = er.Relationship
)

// Quality requirement types (internal/quality).
type (
	// Profile is one user's quality requirements (Premises 2.1/2.2).
	Profile = quality.Profile
	// Evaluator filters relations through profiles.
	Evaluator = quality.Evaluator
)

// Data model types.
type (
	// Relation is a bag of tagged tuples over a schema.
	Relation = relation.Relation
	// Tuple is a row of tagged cells.
	Tuple = relation.Tuple
	// Cell is one value with quality tags and polygen sources.
	Cell = relation.Cell
	// Value is a typed scalar.
	Value = value.Value
	// TagSet is a set of quality indicator values on a cell.
	TagSet = tag.Set
	// Sources is a polygen source set.
	Sources = tag.Sources
)

// TradingModel returns the paper's Figure 3 application view.
func TradingModel() *Model { return er.TradingModel() }

// TradingPipeline returns the full methodology run for the paper's trading
// application (Figures 3-5 plus the §3.4 integration example).
func TradingPipeline() (*Pipeline, error) { return core.TradingPipeline() }

// StandardRegistry returns the built-in parameter derivation functions
// (credibility by source, timeliness by age, accuracy by collection method,
// interpretability by media) and the canonical derivability facts.
func StandardRegistry() *derive.Registry { return derive.StandardRegistry() }

// Collect drains a batch stream into a relation and stops it; exposed for
// users composing algebra operators directly.
func Collect(it algebra.BatchIterator) (*Relation, error) { return algebra.Collect(it) }
