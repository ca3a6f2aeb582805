"""A commensurable system: contraction ratios 1/2 and 1/4.

All ratios are powers of one base r, so refinement runs along stopping
sets (words whose ratio product first drops below r^(2n)) and every
automaton entry carries an integer scale tag.  Transition entries sum
the weights of all bridging words between consecutive stopping levels.
"""

from fractions import Fraction as F

from scipy.optimize import brentq

from selfsim import Pipeline, load_bundled

pipe = Pipeline(load_bundled("commensurable-osc"))
ifs = pipe.ifs

print("maps: x/2 (exponent 1) and x/4 + 3/4 (exponent 2), weights 2/3, 1/3")
print("\nstopping words at low levels (letters are 0-indexed):")
for n in (1, 2, 3):
    ws = ifs.stopping_words(n * ifs.k_max)
    print(f"  level {n}: {[w.letters for w in ws]}")

print("\nbridges from scale tag 0 (one full level of refinement):")
for b in ifs.bridges(0):
    print(f"  word {b.letters}: weight {F(b.weight, ifs.den)}, next tag {b.new_tag}")
print("bridges from scale tag 1 (half a level still pending):")
for b in ifs.bridges(1):
    print(f"  word {b.letters}: weight {F(b.weight, ifs.den)}, next tag {b.new_tag}")

model = pipe.measure
print("\nimages are disjoint, so atoms are cylinders; masses at depth 2:")
for addr in model.addresses(2):
    print(f"  {addr}: {model.mass(addr)}")

eng = pipe.engine

def closed_tau(q):
    f = lambda t: (2 / 3) ** q * 2.0 ** t + (1 / 3) ** q * 4.0 ** t - 1.0
    return brentq(f, -40, 40, xtol=1e-14)

print("\ntau against the Moran-equation root sum p_i^q r_i^(-tau) = 1:")
for q in (0.5, 1.0, 2.0, 3.0):
    t = eng.tau(q)[0]
    print(f"  q={q}: tau = {t:+.10f}   root = {closed_tau(q):+.10f}")
