package vclock

// Parks reports how many times actors called Sleep or Nap on v. Read it once
// the world is idle.
func Parks(v *Virtual) uint64 { return v.parks }
