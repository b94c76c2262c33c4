package wire

import (
	"mind/internal/bitstr"
	"mind/internal/schema"
)

// Trigger messages: footnote 1 of the paper notes that triggers
// (standing queries) are supported "with minor mechanistic
// modifications" to the query machinery. A trigger is a query rectangle
// that is installed at the nodes owning the matching regions instead of
// being resolved once; subsequent inserts that fall inside it are pushed
// to the subscriber as they arrive.

const (
	// KindTriggerInstall routes a trigger to the owning regions like a
	// query; each owner installs it.
	KindTriggerInstall Kind = 96 + iota
	// KindTriggerFire pushes one matching record to the subscriber.
	KindTriggerFire
	// KindTriggerRemove floods a trigger removal.
	KindTriggerRemove
	// KindRetireVersion floods the retirement (deletion) of one index
	// version's storage — the §3.7 version-management operation the
	// paper deferred.
	KindRetireVersion
	// KindRegionRecall floods a request for replicas of a region whose
	// ownership was just adopted through a (relocation) takeover: holders
	// re-insert their matching replica records so the new owner can
	// serve the region (§3.8 fail-over made durable).
	KindRegionRecall
)

// RegionRecall floods a request to re-insert replica records falling
// inside a region whose ownership just changed hands.
type RegionRecall struct {
	OpID   uint64
	Region bitstr.Code
}

func (m *RegionRecall) Kind() Kind { return KindRegionRecall }
func (m *RegionRecall) fields(c *codec) {
	c.Uvarint(&m.OpID)
	c.Code(&m.Region)
}

// RetireVersion floods the deletion of an index version (its records and
// cut tree) across the overlay, freeing storage for aged-out data.
type RetireVersion struct {
	OpID    uint64
	Index   string
	Version uint32
}

func (m *RetireVersion) Kind() Kind { return KindRetireVersion }
func (m *RetireVersion) fields(c *codec) {
	c.Uvarint(&m.OpID)
	c.String(&m.Index)
	c.U32(&m.Version)
}

// TriggerInstall is greedy-routed toward the trigger rectangle's region
// code and decomposed like a query; every node owning an intersecting
// region installs the trigger.
type TriggerInstall struct {
	TriggerID  uint64
	Subscriber string
	Index      string
	Rect       schema.Rect
	Target     bitstr.Code
	Hops       uint8
}

func (m *TriggerInstall) Kind() Kind { return KindTriggerInstall }
func (m *TriggerInstall) fields(c *codec) {
	c.Uvarint(&m.TriggerID)
	c.String(&m.Subscriber)
	c.String(&m.Index)
	c.Rect(&m.Rect)
	c.Code(&m.Target)
	c.U8(&m.Hops)
}

// TriggerFire delivers one matching record to the subscriber, under the
// ReqID of the insert that stored it: the subscriber's dedup key.
type TriggerFire struct {
	TriggerID uint64
	Index     string
	From      NodeInfo
	ReqID     uint64
	Rec       []uint64
}

func (m *TriggerFire) Kind() Kind { return KindTriggerFire }
func (m *TriggerFire) fields(c *codec) {
	c.Uvarint(&m.TriggerID)
	c.String(&m.Index)
	c.Node(&m.From)
	c.U64(&m.ReqID)
	c.U64s(&m.Rec)
}

// TriggerRemove floods a trigger removal across the overlay.
type TriggerRemove struct {
	OpID      uint64
	TriggerID uint64
}

func (m *TriggerRemove) Kind() Kind { return KindTriggerRemove }
func (m *TriggerRemove) fields(c *codec) {
	c.Uvarint(&m.OpID)
	c.Uvarint(&m.TriggerID)
}
