module retrolock/bench

go 1.22

require retrolock v0.0.0

replace retrolock => ../
