#!/usr/bin/env python3
"""Mesh refinement studies: pure diffusion and the full nonlinear system.

Part 1 measures the zero-flux diffusion error against the closed-form
eigenmode.  Part 2 runs the nonlinear scenario with the central flux on
a halving mesh sequence and measures errors against a block-averaged
fine-mesh reference.  Both slopes come out close to 2.
"""

from preytaxis import refinement_order
from preytaxis.acceptance import heat_study, refinement_study

print("pure diffusion vs exact eigenmode (d = 1, t = 0.1):")
meshes = (32, 64, 128)
pairs = heat_study(meshes)
for n, (_, err) in zip(meshes, pairs):
    print(f"  n = {n:4d}: max error {err:.6e}")
print(f"  fitted order: {refinement_order(pairs):.4f}")

print("\nnonlinear system, central flux, against a 256-cell reference:")
meshes = (16, 32, 64)
pairs = refinement_study(meshes, 256)
for n, (_, err) in zip(meshes, pairs):
    print(f"  n = {n:4d}: max error vs reference {err:.6e}")
print(f"  fitted order: {refinement_order(pairs):.4f}")
