"""The Campbell-Hausdorff series, exactly.

ch(x, y) = log(e^x e^y) computed in the free associative algebra over exact
rationals and projected onto the Lyndon bracket basis.  Letters print as
a, b, c, ... so a = x, b = y.
"""

from kvquad import bch, bch_multi, substitute, generator, word_to_str

order = 6
ch = bch(order)

print(f"ch(x, y) through degree {order}, Lyndon coordinates:")
for word, coeff in ch.sorted_items():
    print(f"  degree {len(word)}:  {str(coeff):>8}  on bracket word {word_to_str(word)}")

print("\nword expansion of the degree-3 part:")
print(" ", ch.degree_part(3).expand())

# associativity: composing two-letter series reproduces the three-letter one
x, y, z = (generator(3, i, order) for i in range(3))
left = substitute(bch(order), (substitute(bch(order), (x, y)), z))
right = substitute(bch(order), (x, substitute(bch(order), (y, z))))
print("\nch(ch(x,y),z) == ch(x,ch(y,z)) == ch(x,y,z):",
      left == bch_multi(3, order) == right)
