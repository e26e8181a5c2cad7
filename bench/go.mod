module fastreg/bench

go 1.24

require fastreg v0.0.0

replace fastreg => ../
