"""A pinned copy of lmn, the speed reference the benchmark runs beside the program.

These modules are lmn's tensor, counters, memory, summarizers, attention,
model, training, data and corpus modules exactly as they stood when the
benchmark was added. The harness runs this copy's operation next to each
operation of the program under test, with the same shapes, and reports
the program's times scaled by how far this copy ran from its nominal time
(see ``perfbench/speed.py``). The copy never changes, so a change to lmn
moves the reported figures while a change in the speed of the machine
moves both sides alike. Do not edit these files; replacing them would
re-base every figure the benchmark reports.
"""
