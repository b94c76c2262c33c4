package hypercube

import (
	"sort"
	"time"

	"mind/internal/bitstr"
)

// ContactState is the externally visible state of one contact-table
// entry: identity plus the failure-machinery flags a checker needs to
// distinguish "routable neighbor" from "suspect under probe".
type ContactState struct {
	Addr     string
	Code     bitstr.Code
	LastSeen time.Time
	// Probing marks a contact whose liveness is being verified via an
	// overlay-routed probe.
	Probing bool
	// Unreachable marks a contact suspended from routing (silent past
	// FailAfter) that has not yet been declared dead.
	Unreachable bool
	// AttestedAt is when a probe last vouched for the contact
	// second-hand; zero if never.
	AttestedAt time.Time
}

// Snapshot is a read-only view of one overlay's state at an instant,
// taken atomically under the overlay lock. The chaos harness's global
// invariant checker consumes these; nothing in the overlay reads them
// back.
type Snapshot struct {
	Addr   string
	Joined bool
	Code   bitstr.Code
	// Epoch is the membership-fencing epoch (see Overlay.Epoch).
	Epoch    uint64
	Contacts []ContactState // ascending by Addr
	// Estranged lists addresses this node declared dead and still probes
	// for a post-heal reconnection, ascending.
	Estranged []string
	Recon     ReconStats
}

// Snapshot captures the overlay's current membership view. Contacts are
// sorted by address so downstream iteration (and anything logged from
// it) is deterministic.
func (o *Overlay) Snapshot() Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := Snapshot{
		Addr:     o.ep.Addr(),
		Joined:   o.joined,
		Code:     o.code,
		Epoch:    o.epoch,
		Contacts: make([]ContactState, 0, len(o.contacts)),
		Recon:    o.recon,
	}
	for addr := range o.estranged {
		s.Estranged = append(s.Estranged, addr)
	}
	sort.Strings(s.Estranged)
	for _, c := range o.contacts {
		s.Contacts = append(s.Contacts, ContactState{
			Addr:        c.info.Addr,
			Code:        c.info.Code,
			LastSeen:    c.lastSeen,
			Probing:     c.probing,
			Unreachable: c.unreachable,
			AttestedAt:  c.attestedAt,
		})
	}
	sort.Slice(s.Contacts, func(i, j int) bool { return s.Contacts[i].Addr < s.Contacts[j].Addr })
	return s
}
