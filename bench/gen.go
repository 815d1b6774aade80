package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// epoch is the pinned server clock and the anchor of every generated
// timestamp (the paper's "today" in early 1992). The bench owns its
// generator so a change to internal/workload cannot silently change the
// benchmark's inputs.
var epoch = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

const (
	catalogRows = 100000 // customer rows served by the three read-side workloads
	dimRows     = 10000  // emp_dim: one row per possible employee count
	hotKeys     = 128    // fits the 256-entry plan cache; the uniform 20% does not
	hotShare    = 0.8
	writerSrc   = "bench_w" // source tag every mixed_rw write carries; never "estimate"
	freshWindow = 720 * time.Hour
	projectMin  = 9801 // employees >= projectMin keeps ~2% of rows
)

var (
	nameFirst  = []string{"Fruit", "Nut", "Seed", "Root", "Leaf", "Berry", "Grain", "Vine", "Palm", "Fern", "Moss", "Reed", "Pine", "Oak", "Elm", "Ash"}
	nameSecond = []string{"Co", "Corp", "Inc", "Ltd", "Group", "Partners", "Holdings", "Industries"}
	streets    = []string{"Jay St", "Lois Av", "Main St", "Market St", "Oak Dr", "Hill Rd", "Bay Ct", "Mill Ln", "Park Pl", "Lake Vw"}
	sources    = []string{"sales", "accounting", "Nexis", "estimate"}
)

// custRow is one generated customer with its cell-level tags: the model
// every answer is checked against.
type custRow struct {
	name, addr      string
	emp             int64
	addrSrc, empSrc string
	addrAt, empAt   time.Time
}

func customerSchema() *schema.Schema {
	inds := []tag.Indicator{
		{Name: "creation_time", Kind: value.KindTime},
		{Name: "source", Kind: value.KindString},
	}
	return schema.MustNew("customer", []schema.Attr{
		{Name: "co_name", Kind: value.KindString, Required: true},
		{Name: "address", Kind: value.KindString, Indicators: inds},
		{Name: "employees", Kind: value.KindInt, Indicators: inds},
	}, "co_name")
}

func dimSchema() *schema.Schema {
	return schema.MustNew("emp_dim", []schema.Attr{
		{Name: "employees", Kind: value.KindInt, Required: true},
		{Name: "band", Kind: value.KindString},
	}, "employees")
}

func band(emp int64) string { return fmt.Sprintf("b%02d", emp/500) }

// genCustomer draws row i. Timestamps are whole seconds within a year
// before the epoch, so they survive a round trip through a t'...' literal.
func genCustomer(r *rand.Rand, prefix string, i int) custRow {
	age := func() time.Time {
		return epoch.Add(-time.Duration(r.Int63n(365*24*3600)) * time.Second)
	}
	return custRow{
		name:    prefix + nameFirst[r.Intn(len(nameFirst))] + " " + nameSecond[r.Intn(len(nameSecond))] + " " + strconv.Itoa(i),
		addr:    strconv.Itoa(1+r.Intn(999)) + " " + streets[r.Intn(len(streets))],
		emp:     int64(1 + r.Intn(dimRows)),
		addrSrc: sources[r.Intn(len(sources))],
		empSrc:  sources[r.Intn(len(sources))],
		addrAt:  age(),
		empAt:   age(),
	}
}

// genCustomers generates n rows; the same seed gives the same rows. Keys of
// different prefixes never collide.
func genCustomers(seed int64, n int, prefix string) []custRow {
	r := rand.New(rand.NewSource(seed))
	rows := make([]custRow, n)
	for i := range rows {
		rows[i] = genCustomer(r, prefix, i)
	}
	return rows
}

func taggedCell(v value.Value, at time.Time, src string) relation.Cell {
	return relation.Cell{
		V: v,
		Tags: tag.NewSet(
			tag.Tag{Indicator: "creation_time", Value: value.Time(at)},
			tag.Tag{Indicator: "source", Value: value.Str(src)},
		),
		Sources: tag.NewSources(src),
	}
}

func (c *custRow) tuple() relation.Tuple {
	return relation.Tuple{Cells: []relation.Cell{
		{V: value.Str(c.name)},
		taggedCell(value.Str(c.addr), c.addrAt, c.addrSrc),
		taggedCell(value.Int(c.emp), c.empAt, c.empSrc),
	}}
}

func timeLit(t time.Time) string { return "t'" + t.Format(time.RFC3339) + "'" }

// insertStmt is the tagged INSERT durable_ingest and mixed_rw send.
func (c *custRow) insertStmt() string {
	var b strings.Builder
	b.Grow(200)
	b.WriteString("INSERT INTO customer VALUES ('")
	b.WriteString(c.name)
	b.WriteString("', '")
	b.WriteString(c.addr)
	b.WriteString("' @ {creation_time: ")
	b.WriteString(timeLit(c.addrAt))
	b.WriteString(", source: '")
	b.WriteString(c.addrSrc)
	b.WriteString("'}, ")
	b.WriteString(strconv.FormatInt(c.emp, 10))
	b.WriteString(" @ {creation_time: ")
	b.WriteString(timeLit(c.empAt))
	b.WriteString(", source: '")
	b.WriteString(c.empSrc)
	b.WriteString("'})")
	return b.String()
}

// updateStmt rewrites employees and both of its tags on one existing key.
func updateStmt(key string, emp int64, at time.Time) string {
	return "UPDATE customer SET employees = " + strconv.FormatInt(emp, 10) +
		" @ {creation_time: " + timeLit(at) + ", source: '" + writerSrc + "'} WHERE co_name = '" + key + "'"
}

const lookupPrefix = "SELECT co_name, employees, employees@source, employees@creation_time FROM customer WHERE co_name = '"

func lookupStmt(key string) string { return lookupPrefix + key + "'" }

// The five statements of one quality report, in order. Their texts never
// change, so after the first report every one is a plan-cache hit.
const (
	qQuality = `SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@source != 'estimate'`
	qFresh   = `SELECT COUNT(*) AS n FROM customer WITH QUALITY AGE(employees@creation_time) <= d'720h'`
	qGroup   = `SELECT employees@source AS src, COUNT(*) AS n, SUM(employees) AS s FROM customer GROUP BY employees@source`
	qJoin    = `SELECT band, COUNT(*) AS n FROM customer JOIN emp_dim ON customer.employees = emp_dim.employees GROUP BY band`
	qProject = `SELECT co_name, employees FROM customer WHERE employees >= 9801`
)

var reportStmts = []string{qQuality, qFresh, qGroup, qJoin, qProject}

// keyPicker draws lookup keys: hotShare of draws from a fixed hot set, the
// rest uniform over the eligible rows. stride 2 restricts both to
// even-numbered rows, which mixed_rw's writer never touches, so the reader's
// expected answers stay exact while both sides share every segment.
type keyPicker struct {
	r      *rand.Rand
	hot    []int
	n      int
	stride int
}

func newKeyPicker(seed int64, client, n, stride int) *keyPicker {
	// The hot set depends on the seed alone: every client shares it.
	hr := rand.New(rand.NewSource(seed ^ 0x686f74))
	hot := make([]int, hotKeys)
	for i := range hot {
		hot[i] = hr.Intn(n/stride) * stride
	}
	return &keyPicker{r: clientRand(seed, client), hot: hot, n: n, stride: stride}
}

func (k *keyPicker) next() int {
	if k.r.Float64() < hotShare {
		return k.hot[k.r.Intn(len(k.hot))]
	}
	return k.r.Intn(k.n/k.stride) * k.stride
}

func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
}

// write is one mixed_rw write with its effect on the model.
type write struct {
	stmt   string
	update bool
	idx    int     // row updated
	row    custRow // row after the write (update) or the new row (insert)
}

// writeGen draws mixed_rw's writes: four UPDATEs of an odd-numbered existing
// row, then one INSERT of a new key, and so on. The mix is a fixed cycle
// because an UPDATE costs a hundred times an INSERT here: with a coin toss
// the median write latency would mostly measure the coin.
type writeGen struct {
	r    *rand.Rand
	rows []custRow
	n    int
	seq  int
}

func (g *writeGen) next() write {
	if g.n++; g.n%5 != 0 {
		idx := g.r.Intn(len(g.rows)/2)*2 + 1
		row := g.rows[idx]
		row.emp = int64(1 + g.r.Intn(dimRows))
		row.empSrc = writerSrc
		row.empAt = epoch.Add(-time.Duration(g.r.Intn(3600)) * time.Second)
		return write{stmt: updateStmt(row.name, row.emp, row.empAt), update: true, idx: idx, row: row}
	}
	row := genCustomer(g.r, "W ", g.seq)
	g.seq++
	row.empSrc = writerSrc
	return write{stmt: row.insertStmt(), row: row}
}

// rowHash hashes one row's values and tags; the wrapping sum of the hashes of
// a table's rows is its order-independent checksum.
func rowHash(name, addr string, emp int64, addrSrc, empSrc string, addrAt, empAt time.Time) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%s|%s|%d|%d", name, addr, emp, addrSrc, empSrc, addrAt.UnixNano(), empAt.UnixNano())
	return h.Sum64()
}

func (c *custRow) hash() uint64 {
	return rowHash(c.name, c.addr, c.emp, c.addrSrc, c.empSrc, c.addrAt, c.empAt)
}

func modelSum(rows []custRow) uint64 {
	var sum uint64
	for i := range rows {
		sum += rows[i].hash()
	}
	return sum
}

// tableSum reads the customer table back out of a catalog.
func tableSum(cat *storage.Catalog) (rows int, sum uint64, err error) {
	tbl, ok := cat.Get("customer")
	if !ok {
		return 0, 0, fmt.Errorf("customer table missing")
	}
	tagOf := func(c relation.Cell) (string, time.Time) {
		src, _ := c.Tags.Get("source")
		at, _ := c.Tags.Get("creation_time")
		return src.AsString(), at.AsTime()
	}
	tbl.Scan(func(_ storage.RowID, tup relation.Tuple) bool {
		addrSrc, addrAt := tagOf(tup.Cells[1])
		empSrc, empAt := tagOf(tup.Cells[2])
		sum += rowHash(tup.Cells[0].V.AsString(), tup.Cells[1].V.AsString(), tup.Cells[2].V.AsInt(),
			addrSrc, empSrc, addrAt, empAt)
		rows++
		return true
	})
	return rows, sum, nil
}
