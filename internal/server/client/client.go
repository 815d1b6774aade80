// Package client is the Go client for qqld. A Client owns one TCP
// connection speaking wire v2 and runs an asynchronous core: a writer
// goroutine streams request frames onto the socket while a reader goroutine
// demultiplexes responses by request ID, so many requests can be in flight
// on the one connection at once (pipelining). Do, Query and Exec are
// synchronous wrappers — each sends and waits for its own response — but
// concurrent callers do not serialize on a round-trip mutex, and
// DoAsync/ExecBatch expose the pipeline directly.
//
// A Client survives its connection: when the transport fails, in-flight
// calls fail with an error wrapping ErrConnClosed, and the next call
// transparently dials a fresh connection (with Options.Retry's jittered
// exponential backoff). Failed calls are never re-sent automatically — the
// server may have executed them — so retry of the statement itself stays
// with the caller, who knows whether it is idempotent.
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server/wire"
	"repro/internal/value"
)

// Retry tunes connection-establishment retries, applied to the first dial
// and to every transparent reconnect after a transport failure. The
// statement that observed the failure is NOT retried — only the dial is.
type Retry struct {
	// Attempts is the total number of dial attempts per connection
	// (default 1: fail fast, no retry).
	Attempts int
	// Backoff is the wait before the second attempt; it doubles per
	// attempt with ±50% jitter. Default 50ms.
	Backoff time.Duration
	// MaxBackoff caps the doubling. Default 2s.
	MaxBackoff time.Duration
}

// Options tunes a connection; the zero value means binary payloads,
// pipeline depth 64, 5s dial timeout, no dial retries.
type Options struct {
	// Encoding selects the request payload encoding: "binary"
	// (default) or "json". Responses are decoded by their frame header,
	// whatever the server chose.
	Encoding string
	// MaxInFlight caps the requests this client keeps in flight; further
	// sends block until responses drain. Default 64.
	MaxInFlight int
	// DialTimeout bounds one TCP connect attempt. Default 5s.
	DialTimeout time.Duration
	// Retry tunes dial/reconnect attempts and backoff.
	Retry Retry
}

// ErrClosed is returned for calls on a client the caller Closed.
var ErrClosed = errors.New("client: closed")

// ErrConnClosed marks transport failures: the connection a call was using
// is gone (reset, EOF, refused by the server). Test with
// errors.Is(err, ErrConnClosed). The next call dials a fresh connection;
// the failed call itself is not replayed.
var ErrConnClosed = errors.New("client: connection closed")

// result is one demultiplexed reply.
type result struct {
	resp  *wire.Response
	batch []wire.Response
	err   error
}

// Client is a reusable handle to a qqld server. It is safe for concurrent
// use; concurrent calls pipeline onto one socket instead of queueing behind
// each other's round-trips, and a broken socket is replaced on the next
// call.
type Client struct {
	addr string
	opts Options
	enc  wire.Encoding

	closed atomic.Bool

	// The current connection core and the reconnect single-flight.
	coreMu    sync.Mutex
	cur       *core
	redialing chan struct{} // non-nil while one goroutine redials
	dialErr   error         // outcome of the last finished redial
}

// core is one connection's asynchronous machinery. A Client replaces
// its core on reconnect; in-flight requests stay bound to the core that
// carried them.
type core struct {
	conn net.Conn
	enc  wire.Encoding

	sendCh    chan []byte   // encoded frames for the writer goroutine
	done      chan struct{} // closed on shutdown; stops the writer
	closeOnce sync.Once
	slots     chan struct{} // in-flight semaphore (cap MaxInFlight)
	dead      atomic.Bool   // set by fail; the client then redials

	pendMu  sync.Mutex
	pending map[uint64]chan result
	nextID  uint64
	connErr error // first transport error; sticky
}

// Dial connects to a qqld server at addr ("host:port") with default
// Options: binary encoding, pipelined.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, Options{DialTimeout: timeout})
}

// DialOptions connects with explicit options.
func DialOptions(addr string, o Options) (*Client, error) {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	var enc wire.Encoding
	switch o.Encoding {
	case "", "binary":
		enc = wire.EncBinary
	case "json":
		enc = wire.EncJSON
	default:
		return nil, fmt.Errorf("client: unknown encoding %q (want binary or json)", o.Encoding)
	}
	c := &Client{addr: addr, opts: o, enc: enc}
	co, err := c.dialCore()
	if err != nil {
		return nil, err
	}
	c.cur = co
	return c, nil
}

// dialConn establishes one TCP connection, applying Retry's jittered
// exponential backoff across attempts.
func (c *Client) dialConn() (net.Conn, error) {
	attempts := c.opts.Retry.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	backoff := c.opts.Retry.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	maxBackoff := c.opts.Retry.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(jitter(backoff))
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			if c.closed.Load() {
				return nil, ErrClosed
			}
		}
		conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	if attempts > 1 {
		return nil, fmt.Errorf("client: dial %s (%d attempts): %w", c.addr, attempts, lastErr)
	}
	return nil, fmt.Errorf("client: dial %s: %w", c.addr, lastErr)
}

// jitter spreads d by ±50% so reconnecting clients don't stampede a
// restarting server in lockstep.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// dialCore dials (with retries) and starts a fresh connection core.
func (c *Client) dialCore() (*core, error) {
	conn, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	co := &core{
		conn:    conn,
		enc:     c.enc,
		sendCh:  make(chan []byte, c.opts.MaxInFlight),
		done:    make(chan struct{}),
		slots:   make(chan struct{}, c.opts.MaxInFlight),
		pending: make(map[uint64]chan result),
	}
	go co.writeLoop(bufio.NewWriter(conn))
	go co.readLoop(bufio.NewReaderSize(conn, 64*1024))
	return co, nil
}

// getCore returns a usable connection core, transparently dialing a new
// connection when the current one has failed. Concurrent callers share
// one redial (single-flight); they block until it finishes and share its
// outcome.
func (c *Client) getCore() (*core, error) {
	for {
		if c.closed.Load() {
			return nil, ErrClosed
		}
		c.coreMu.Lock()
		co, redial := c.cur, c.redialing
		c.coreMu.Unlock()
		if co != nil && !co.dead.Load() {
			return co, nil
		}
		if redial != nil {
			<-redial
			c.coreMu.Lock()
			co, err := c.cur, c.dialErr
			c.coreMu.Unlock()
			if err != nil {
				return nil, err
			}
			if co != nil && !co.dead.Load() {
				return co, nil
			}
			continue
		}
		// Become the redialer, unless someone else already did.
		c.coreMu.Lock()
		if c.redialing != nil || c.cur != co {
			c.coreMu.Unlock()
			continue
		}
		ch := make(chan struct{})
		c.redialing = ch
		c.coreMu.Unlock()
		nc, err := c.dialCore()
		c.coreMu.Lock()
		c.dialErr = err
		if err == nil {
			c.cur = nc
		}
		c.redialing = nil
		c.coreMu.Unlock()
		close(ch)
		if err != nil {
			return nil, err
		}
		if c.closed.Load() {
			nc.shutdown()
			return nil, ErrClosed
		}
		return nc, nil
	}
}

// Close closes the underlying connection; in-flight calls fail with
// ErrClosed and subsequent calls do not reconnect.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.coreMu.Lock()
	co := c.cur
	c.coreMu.Unlock()
	if co != nil {
		co.shutdown()
	}
	return nil
}

// shutdown stops the core's goroutines and fails its in-flight calls.
func (co *core) shutdown() {
	co.closeOnce.Do(func() { close(co.done) })
	co.fail(ErrClosed)
}

// writeLoop streams encoded frames onto the socket, flushing only when the
// send queue is momentarily empty so a pipelined burst pays one syscall.
func (co *core) writeLoop(bw *bufio.Writer) {
	for {
		select {
		case buf := <-co.sendCh:
			if _, err := bw.Write(buf); err != nil {
				co.fail(fmt.Errorf("client: send: %w", err))
				return
			}
			if len(co.sendCh) == 0 {
				if err := bw.Flush(); err != nil {
					co.fail(fmt.Errorf("client: send: %w", err))
					return
				}
			}
		case <-co.done:
			return
		}
	}
}

// readLoop demultiplexes response frames to their waiting callers by
// request ID. Requests are numbered from 1, so a frame with ID 0 is the
// server refusing the connection (too many connections, a stream it cannot
// read); its error becomes the connection error.
func (co *core) readLoop(br *bufio.Reader) {
	for {
		f, err := wire.ReadFrame(br, wire.MaxFrameBytes)
		if err != nil {
			co.fail(fmt.Errorf("client: recv: %w", err))
			return
		}
		res := decodeResponseFrame(f)
		if f.ID == 0 {
			co.fail(refusal(res))
			return
		}
		co.deliver(f.ID, res)
	}
}

// refusal is the connection error carried by an ID-0 frame.
func refusal(res result) error {
	switch {
	case res.err != nil:
		return res.err
	case res.resp != nil && res.resp.Err != "":
		return errors.New(res.resp.Err)
	}
	return errors.New("client: recv: response frame with ID 0")
}

// decodeResponseFrame turns one response frame into a result, honouring
// the frame's own encoding byte (the server may mirror or force either).
func decodeResponseFrame(f *wire.Frame) result {
	switch f.Type {
	case wire.FrameResult:
		if f.Encoding == wire.EncBinary {
			t, err := wire.DecodeTypedResponse(f.Payload)
			if err != nil {
				return result{err: fmt.Errorf("client: bad response: %w", err)}
			}
			return result{resp: t.Response()}
		}
		var resp wire.Response
		if err := json.Unmarshal(f.Payload, &resp); err != nil {
			return result{err: fmt.Errorf("client: bad response: %w", err)}
		}
		return result{resp: &resp}
	case wire.FrameBatchResult:
		if f.Encoding == wire.EncBinary {
			ts, err := wire.DecodeTypedBatch(f.Payload)
			if err != nil {
				return result{err: fmt.Errorf("client: bad batch response: %w", err)}
			}
			resps := make([]wire.Response, len(ts))
			for i, t := range ts {
				resps[i] = *t.Response()
			}
			return result{batch: resps}
		}
		var br wire.BatchResponse
		if err := json.Unmarshal(f.Payload, &br); err != nil {
			return result{err: fmt.Errorf("client: bad batch response: %w", err)}
		}
		return result{batch: br.Resps}
	default:
		return result{err: fmt.Errorf("client: unknown response frame type 0x%02x", f.Type)}
	}
}

// deliver hands a result to the caller registered under id. The in-flight
// slot is released by whoever removes the pending entry — here, or in
// abandon when the caller's context expired first (then the late response
// is simply dropped).
func (co *core) deliver(id uint64, res result) {
	co.pendMu.Lock()
	ch, ok := co.pending[id]
	if ok {
		delete(co.pending, id)
	}
	co.pendMu.Unlock()
	if !ok {
		return
	}
	<-co.slots
	ch <- res // buffered; never blocks
}

// fail marks the core broken, closes its connection, and fails every
// pending call. Transport errors are wrapped so callers can test
// errors.Is(err, ErrConnClosed); a caller-initiated Close keeps ErrClosed.
func (co *core) fail(err error) {
	if err != ErrClosed && !errors.Is(err, ErrConnClosed) {
		err = fmt.Errorf("%w: %v", ErrConnClosed, err)
	}
	co.dead.Store(true)
	co.pendMu.Lock()
	if co.connErr == nil {
		co.connErr = err
	} else {
		err = co.connErr
	}
	pend := co.pending
	co.pending = make(map[uint64]chan result)
	co.pendMu.Unlock()
	co.conn.Close()
	for range pend {
		<-co.slots
	}
	for _, ch := range pend {
		ch <- result{err: err}
	}
}

// Pending is an in-flight request started by DoAsync or ExecBatchAsync;
// Wait blocks for its response. It stays bound to the connection that
// carried it even if the client reconnects.
type Pending struct {
	co    *core
	id    uint64
	ch    chan result
	batch bool
}

// Wait blocks until the response arrives.
func (p *Pending) Wait() (*wire.Response, error) { return p.WaitContext(context.Background()) }

// WaitContext blocks until the response arrives or ctx is done. On ctx
// expiry the request is abandoned: its slot is freed, the connection stays
// usable, and the late response — identified by its request ID — is
// discarded when it lands.
func (p *Pending) WaitContext(ctx context.Context) (*wire.Response, error) {
	res, err := p.waitContext(ctx)
	if err != nil {
		return nil, err
	}
	return res.resp, nil
}

func (p *Pending) waitContext(ctx context.Context) (result, error) {
	select {
	case res := <-p.ch:
		if res.err != nil {
			return result{}, res.err
		}
		return res, nil
	case <-ctx.Done():
		p.co.abandon(p.id)
		return result{}, ctx.Err()
	}
}

// abandon forgets an in-flight request whose caller gave up.
func (co *core) abandon(id uint64) {
	co.pendMu.Lock()
	_, ok := co.pending[id]
	if ok {
		delete(co.pending, id)
	}
	co.pendMu.Unlock()
	if ok {
		<-co.slots
	}
}

// send encodes and enqueues one request frame, returning its Pending.
func (co *core) send(ctx context.Context, ftype wire.FrameType, payload []byte) (*Pending, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case co.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-co.done:
		return nil, co.errOr(ErrClosed)
	}
	co.pendMu.Lock()
	if co.connErr != nil {
		err := co.connErr
		co.pendMu.Unlock()
		<-co.slots
		return nil, err
	}
	co.nextID++
	id := co.nextID
	ch := make(chan result, 1)
	co.pending[id] = ch
	co.pendMu.Unlock()
	frame := wire.AppendFrame(nil, &wire.Frame{
		Version: wire.V2, Encoding: co.enc, Type: ftype, ID: id, Payload: payload})
	select {
	case co.sendCh <- frame:
	case <-co.done:
		co.abandon(id)
		return nil, co.errOr(ErrClosed)
	}
	return &Pending{co: co, id: id, ch: ch, batch: ftype == wire.FrameBatch}, nil
}

func (co *core) errOr(fallback error) error {
	co.pendMu.Lock()
	defer co.pendMu.Unlock()
	if co.connErr != nil {
		return co.connErr
	}
	return fallback
}

func (c *Client) encodeExec(q string) ([]byte, error) {
	if c.enc == wire.EncBinary {
		return wire.AppendRequest(nil, q), nil
	}
	return json.Marshal(wire.Request{Q: q})
}

// Do sends one request and waits for its response. It returns an error
// only for transport problems; server-side errors come back in
// Response.Err (use Query/Exec for calls that fold those into err).
func (c *Client) Do(q string) (*wire.Response, error) {
	return c.DoContext(context.Background(), q)
}

// DoContext is Do with a per-request deadline. A timed-out request is
// abandoned without stranding the connection: the slot is freed and the
// late response is dropped by ID.
func (c *Client) DoContext(ctx context.Context, q string) (*wire.Response, error) {
	p, err := c.DoAsyncContext(ctx, q)
	if err != nil {
		return nil, err
	}
	return p.WaitContext(ctx)
}

// DoAsync enqueues one request on the pipeline and returns immediately;
// call Wait on the result.
func (c *Client) DoAsync(q string) (*Pending, error) {
	return c.DoAsyncContext(context.Background(), q)
}

// DoAsyncContext is DoAsync honouring ctx while waiting for a free
// in-flight slot.
func (c *Client) DoAsyncContext(ctx context.Context, q string) (*Pending, error) {
	payload, err := c.encodeExec(q)
	if err != nil {
		return nil, fmt.Errorf("client: send: %w", err)
	}
	co, err := c.getCore()
	if err != nil {
		return nil, err
	}
	return co.send(ctx, wire.FrameExec, payload)
}

// ExecBatch ships qs as one batch frame and returns one Response per
// statement (Resps[i].Err carries statement i's error; a failing statement
// does not stop the rest).
func (c *Client) ExecBatch(qs []string) ([]wire.Response, error) {
	return c.ExecBatchContext(context.Background(), qs)
}

// ExecBatchContext is ExecBatch with a deadline.
func (c *Client) ExecBatchContext(ctx context.Context, qs []string) ([]wire.Response, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	var payload []byte
	if c.enc == wire.EncBinary {
		payload = wire.AppendBatchRequest(nil, qs)
	} else {
		raw, err := json.Marshal(wire.BatchRequest{Qs: qs})
		if err != nil {
			return nil, fmt.Errorf("client: send: %w", err)
		}
		payload = raw
	}
	co, err := c.getCore()
	if err != nil {
		return nil, err
	}
	p, err := co.send(ctx, wire.FrameBatch, payload)
	if err != nil {
		return nil, err
	}
	res, err := p.waitContext(ctx)
	if err != nil {
		return nil, err
	}
	if res.batch == nil {
		// A protocol-level failure (oversized batch frame, malformed
		// payload, version mismatch) is answered with a single error
		// response; surface its message — the connection stays usable.
		if res.resp != nil && res.resp.Err != "" {
			return nil, errors.New(res.resp.Err)
		}
		return nil, errors.New("client: batch request answered by non-batch response")
	}
	return res.batch, nil
}

// Query runs a script and returns the final result set. A server-side
// error becomes the returned error.
func (c *Client) Query(q string) (cols []string, rows [][]string, err error) {
	resp, err := c.Do(q)
	if err != nil {
		return nil, nil, err
	}
	if resp.Err != "" {
		return nil, nil, errors.New(resp.Err)
	}
	return resp.Cols, resp.Rows, nil
}

// QueryValues runs a script and returns the final result set as typed
// cells. It requires the binary encoding (the default): under EncJSON the
// wire carries rendered literals only.
func (c *Client) QueryValues(q string) (cols []string, rows [][]value.Value, err error) {
	resp, err := c.Do(q)
	if err != nil {
		return nil, nil, err
	}
	if resp.Err != "" {
		return nil, nil, errors.New(resp.Err)
	}
	if resp.Values == nil && len(resp.Rows) > 0 {
		return nil, nil, errors.New("client: QueryValues requires the binary encoding")
	}
	return resp.Cols, resp.Values, nil
}

// Exec runs a script for effect and returns the final status message. A
// server-side error becomes the returned error.
func (c *Client) Exec(q string) (msg string, err error) {
	resp, err := c.Do(q)
	if err != nil {
		return "", err
	}
	if resp.Err != "" {
		return "", errors.New(resp.Err)
	}
	return resp.Msg, nil
}

// QueryInt runs a script whose final statement yields a single cell and
// parses it as an integer — the common COUNT(*) shape in tests and
// benchmarks.
func (c *Client) QueryInt(q string) (int64, error) {
	_, rows, err := c.Query(q)
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, fmt.Errorf("client: QueryInt wants a 1x1 result, got %dx%d", len(rows), lenFirst(rows))
	}
	n, err := strconv.ParseInt(rows[0][0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("client: QueryInt: %w", err)
	}
	return n, nil
}

func lenFirst(rows [][]string) int {
	if len(rows) == 0 {
		return 0
	}
	return len(rows[0])
}
