"""Sudden-quench thermodynamics of two coupled oscillators.

Switching the coupling of two thermalized oscillators instantaneously
costs work. Part of that work is irreversible, and the quantum system
dissipates more of it than its classical twin: the difference (the
excess dissipated work) survives only at low temperature, where quantum
fluctuations dominate, and dies off alongside the Gaussian discord
generated by the same quench.

Writes quench_sweep.csv next to this script; plot columns 1, 8 and 9
(temperature, omega_excess, gaussian_discord) with any tool, e.g.

    gnuplot> set logscale y
    gnuplot> plot "quench_sweep.csv" every ::1 using 1:8 with lines, \\
                  "" every ::1 using 1:9 with lines
"""

import pathlib

from qcorr import QuenchParams, reports_to_csv, sweep_temperature

params = QuenchParams(omega=1.0, lambda0=1.0)

print("Single temperature point, unit natural parameters (T = 1):")
reports = sweep_temperature(params, 0.1, 5.0, 50)
probe = [r for r in reports if abs(r.temperature - 1.0) < 0.06][0]
print(f"  average classical work   {probe.w_c_avg:.6f}")
print(f"  classical free energy    {probe.df_c:.6f}")
print(f"  classical irreversible   {probe.w_c_irr:.6f}")
print(f"  average quantum work     {probe.w_q_avg:.6f}")
print(f"  quantum free energy      {probe.df_q:.6f}")
print(f"  quantum irreversible     {probe.w_q_irr:.6f}")
print(f"  excess dissipated work   {probe.omega_excess:.6f}")
print(f"  Gaussian discord         {probe.gaussian_discord:.6f}")

print()
print("Temperature sweep (quench amplitude equal to the frequency):")
print(f"{'T':>6}  {'excess work':>12}  {'discord':>9}")
for report in reports[::7]:
    print(f"{report.temperature:6.2f}  {report.omega_excess:12.3e}  {report.gaussian_discord:9.6f}")

out = pathlib.Path(__file__).with_name("quench_sweep.csv")
out.write_text(reports_to_csv(reports))
print(f"\nFull 50-point sweep written to {out.name}.")
print("Both columns peak at low temperature and decay toward zero as the")
print("system turns classical; whether the two decays are linked by more")
print("than appearance is an open question.")
