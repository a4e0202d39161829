package sim

// Room is what an engine keeps room for: event records in its slab, and
// entries in its free list, lane, heap, position index, waiting list and
// pending-broadcast queue. It grows with the peak population of each and
// never with the work done.
type Room struct {
	Records, Free, Lane, Heap, Pos, Waiting, Broadcasts int
}

// RoomOf reports e's Room.
func RoomOf(e *Engine) Room {
	return Room{
		Records:    len(e.recs) * chunkSize,
		Free:       cap(e.free),
		Lane:       cap(e.lane),
		Heap:       cap(e.heap),
		Pos:        cap(e.pos),
		Waiting:    cap(e.waiting),
		Broadcasts: e.bcasts.Cap(),
	}
}
