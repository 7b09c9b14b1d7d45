package airshed

// Sequential runs the same simulation single-process on the same kernels,
// so with identical arithmetic, returning [layer][species][grid].
func Sequential(p Params) [][][]float32 {
	st := newState(p, 0, p.Layers, p.Grid)
	n := p.Layers * p.Species
	for hour := 0; hour < p.Hours; hour++ {
		lus, _ := st.factor(hour)
		for step := 0; step < p.Steps; step++ {
			st.transport(lus)
			for r := 0; r < n; r++ { // r = layer·Species + species in both layouts
				for g, v := range st.block[r*p.Grid : (r+1)*p.Grid] {
					st.points[g*n+r] = v
				}
			}
			st.chemistry()
			for r := 0; r < n; r++ {
				row := st.block[r*p.Grid : (r+1)*p.Grid]
				for g := range row {
					row[g] = st.points[g*n+r]
				}
			}
			st.transport(lus)
		}
	}
	return st.layers()
}
