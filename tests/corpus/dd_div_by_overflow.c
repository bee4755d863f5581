/* Minimized from `safegen fuzz --loops --seed 0xC60`, iteration 1859
 * (loop_weight 4). v10 overflows to +inf, so the guarded divisor
 * v10*v10 + 0.5 is +inf: the double-double quotient finite / inf must
 * be the IEEE zero. It used to rescale the infinite divisor and recurse
 * until the stack overflowed, aborting the whole process under IGen-dd. */
/* safegen-fuzz: fn=f0 inputs=1757.6836277874718,1.0 */

double f0(double v0, int n) {
    double v1 = v0;
    for (int i1 = 0; i1 < 5; i1++) {
        v1 = v1 * v0 + v0;
    }
    double v10 = v0;
    for (int i10 = 0; i10 < 8; i10++) {
        v10 = v10 * v1 + v1;
    }
    double v6 = v1;
    int t6 = 0;
    while (t6 < n) {
        v6 = v6 + 1.0;
        t6 = t6 + 1;
    }
    return v6 / (v10 * v10 + 0.5);
}
