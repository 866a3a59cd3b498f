module atlahs/bench

go 1.24

require atlahs v0.0.0

replace atlahs => ../
