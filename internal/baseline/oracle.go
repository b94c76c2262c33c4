package baseline

import (
	"mind/internal/schema"
	"mind/internal/store"
)

// Oracle is the centralized architecture reduced to its essence: one
// in-process index over the same storage engine MIND's nodes use, with
// no transport in the way. The chaos harness mirrors every surviving
// insert into an Oracle and compares range-query answers against the
// distributed system's — the §5-style centralized reference turned into
// a differential-testing ground truth.
type Oracle struct {
	sch *schema.Schema
	st  *store.Sharded
}

// NewOracle creates an empty centralized reference index.
func NewOracle(sch *schema.Schema) *Oracle {
	return &Oracle{sch: sch, st: store.NewSharded(sch, store.Options{})}
}

// Insert stores a record. The caller decides what "surviving insert"
// means (typically: the distributed insert was acked).
func (o *Oracle) Insert(rec schema.Record) { o.st.Insert(rec) }

// Query returns every stored record matching the rect over the indexed
// dimensions.
func (o *Oracle) Query(rect schema.Rect) []schema.Record { return o.st.Query(rect) }

// Count returns the number of stored records matching the rect.
func (o *Oracle) Count(rect schema.Rect) int { return o.st.Count(rect) }

// Len returns the total record count.
func (o *Oracle) Len() int { return o.st.Len() }
