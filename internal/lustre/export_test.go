package lustre

// Retained reports the entries the metadata server's create queue, the
// OSTs' job lists and the thrash table's rows of s keep room for: what
// they retain, which grows with their peak depth and never with the work
// done.
func Retained(s *System) int {
	n := s.mds.pending.Cap()
	for i := range s.osts {
		n += cap(s.osts[i].model.jobs)
	}
	for _, row := range s.thrash.rows {
		n += cap(row)
	}
	return n
}
