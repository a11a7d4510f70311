module dialga/bench

go 1.22

require dialga v0.0.0

replace dialga => ../
