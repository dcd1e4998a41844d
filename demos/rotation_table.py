"""Closed-form rotation numbers against long-orbit winding estimates."""

from poncelet import rotation_confocal, rotation_estimate

print(f"{'e':>6s} {'f':>8s} {'closed form':>14s} {'estimate':>14s} {'diff':>10s}")
for e in (0.3, 0.5, 0.7, 0.9, 0.99):
    for t in (0.2, 0.5, 0.8):
        f = e * t
        closed = rotation_confocal(e, f)
        est = rotation_estimate(e, f, 20000)
        print(f"{e:6.2f} {f:8.4f} {closed:14.10f} {est:14.10f} {abs(closed - est):10.2e}")
