package storage

import (
	"paso/internal/tuple"
)

// Hash is a dictionary store (the paper's I(.)=Q(.)=D(.)=O(1) case used to
// normalize costs in §5). Alongside the arrival-order list it keeps, per
// field position, a FIFO chain of the entries holding each value at that
// position. A template that pins at least one field with OpEq, ground or
// partial, walks the shortest pinned chain oldest-first, so Q is the
// length of that chain up to the first match: one probe for a ground
// template over distinct objects, and for a keyed template such as
// (name, Eq(key), ?payload). A pinned value with no chain is an immediate
// miss. Templates with no OpEq field fall back to an oldest-first scan of
// the whole class.
//
// A position's chains are built lazily, the first time a query pins that
// position, and Restore drops them all; a class whose queries never pin a
// field never pays to index it.
type Hash struct {
	head, tail *hashEntry // arrival order, oldest first
	n          int
	byID       map[tuple.ID]*hashEntry
	// index[i] maps a value's Key to the chain of entries holding it at
	// field i; nil until a query first pins position i.
	index []map[tuple.Key]*chain
	stats Stats
}

var _ Store = (*Hash)(nil)

// hashEntry is one stored object, linked into the arrival list and into
// one chain per indexed field position it has.
type hashEntry struct {
	Entry
	prev, next *hashEntry
	links      []chainLink // by field position; nil until a position is indexed
}

// chainLink places an entry in the chain for its value at one position.
type chainLink struct {
	c          *chain
	prev, next *hashEntry
}

// chain is the FIFO of entries sharing one value at one field position.
type chain struct {
	key        tuple.Key
	head, tail *hashEntry
	n          int
}

// NewHash returns an empty hash store.
func NewHash() *Hash {
	return &Hash{byID: make(map[tuple.ID]*hashEntry)}
}

// Insert implements Store.
func (s *Hash) Insert(seq uint64, t tuple.Tuple) {
	e := s.push(Entry{Seq: seq, Tuple: t})
	for pos, idx := range s.index {
		if idx != nil {
			s.link(idx, pos, e)
		}
	}
	s.stats.Inserts++
	s.stats.InsertProbes++
}

// push appends a new entry to the arrival list and the id index.
func (s *Hash) push(en Entry) *hashEntry {
	e := &hashEntry{Entry: en, prev: s.tail}
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
	}
	s.tail = e
	s.n++
	s.byID[en.Tuple.ID()] = e
	return e
}

// link appends e to the chain for its value at pos, if it has that field.
func (s *Hash) link(idx map[tuple.Key]*chain, pos int, e *hashEntry) {
	if pos >= e.Tuple.Arity() {
		return
	}
	k := e.Tuple.Field(pos).Key()
	c := idx[k]
	if c == nil {
		c = &chain{key: k}
		idx[k] = c
	}
	if e.links == nil {
		e.links = make([]chainLink, e.Tuple.Arity())
	}
	e.links[pos] = chainLink{c: c, prev: c.tail}
	if c.tail != nil {
		c.tail.links[pos].next = e
	} else {
		c.head = e
	}
	c.tail = e
	c.n++
}

// chainFor returns the chain to walk for tp: the shortest chain among its
// OpEq positions, building any position's index on first use. keyed is
// false when tp pins no field; a keyed template with a nil chain has no
// match.
func (s *Hash) chainFor(tp tuple.Template) (c *chain, pos int, keyed bool) {
	for i := 0; i < tp.Arity(); i++ {
		m := tp.Matcher(i)
		if m.Op != tuple.OpEq {
			continue
		}
		cc := s.indexAt(i)[m.A.Key()]
		if cc == nil {
			return nil, 0, true
		}
		if !keyed || cc.n < c.n {
			c, pos = cc, i
		}
		keyed = true
	}
	return c, pos, keyed
}

// indexAt returns the chains for position pos, building them from the
// arrival list the first time.
func (s *Hash) indexAt(pos int) map[tuple.Key]*chain {
	if pos < len(s.index) && s.index[pos] != nil {
		return s.index[pos]
	}
	for len(s.index) <= pos {
		s.index = append(s.index, nil)
	}
	idx := make(map[tuple.Key]*chain)
	s.index[pos] = idx
	for e := s.head; e != nil; e = e.next {
		s.link(idx, pos, e)
	}
	return idx
}

// find returns the oldest entry matching tp and the probes spent: one per
// entry visited, and one for a keyed lookup that finds no chain.
func (s *Hash) find(tp tuple.Template) (*hashEntry, int) {
	c, pos, keyed := s.chainFor(tp)
	probes := 0
	switch {
	case !keyed:
		for e := s.head; e != nil; e = e.next {
			probes++
			if tp.Matches(e.Tuple) {
				return e, probes
			}
		}
	case c == nil:
		probes++
	default:
		for e := c.head; e != nil; e = e.links[pos].next {
			probes++
			if tp.Matches(e.Tuple) {
				return e, probes
			}
		}
	}
	return nil, probes
}

// Read implements Store: the oldest match, as List returns.
func (s *Hash) Read(tp tuple.Template) (tuple.Tuple, bool) {
	s.stats.Reads++
	e, probes := s.find(tp)
	s.stats.ReadProbes += probes
	if e == nil {
		return tuple.Tuple{}, false
	}
	return e.Tuple, true
}

// Remove implements Store.
func (s *Hash) Remove(tp tuple.Template) (tuple.Tuple, bool) {
	s.stats.Removes++
	e, probes := s.find(tp)
	s.stats.RemoveProbes += probes
	if e == nil {
		return tuple.Tuple{}, false
	}
	s.unlink(e)
	return e.Tuple, true
}

// unlink removes e from the arrival list, the id index, and its chains,
// each in O(1); an emptied chain leaves its index.
func (s *Hash) unlink(e *hashEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	s.n--
	delete(s.byID, e.Tuple.ID())
	for pos, l := range e.links {
		if l.c == nil {
			continue
		}
		if l.prev != nil {
			l.prev.links[pos].next = l.next
		} else {
			l.c.head = l.next
		}
		if l.next != nil {
			l.next.links[pos].prev = l.prev
		} else {
			l.c.tail = l.prev
		}
		l.c.n--
		if l.c.n == 0 {
			delete(s.index[pos], l.c.key)
		}
	}
}

// RemoveByID implements Store.
func (s *Hash) RemoveByID(id tuple.ID) bool {
	e, ok := s.byID[id]
	if !ok {
		return false
	}
	s.unlink(e)
	return true
}

// Len implements Store.
func (s *Hash) Len() int { return s.n }

// Snapshot implements Store.
func (s *Hash) Snapshot() []Entry {
	out := make([]Entry, 0, s.n)
	for e := s.head; e != nil; e = e.next {
		out = append(out, e.Entry)
	}
	return out
}

// Restore implements Store. The chains are dropped and rebuilt on next
// use.
func (s *Hash) Restore(entries []Entry) {
	s.head, s.tail, s.n, s.index = nil, nil, 0, nil
	s.byID = make(map[tuple.ID]*hashEntry, len(entries))
	for _, en := range entries {
		s.push(en)
	}
}

// Stats implements Store.
func (s *Hash) Stats() Stats { return s.stats }
