/* safegen-fuzz: fn=f0 inputs=0.5,0.0 */
/* safegen-fuzz: fn=f0 inputs=0.5,3.0 */

/* Invariant subscripts in a loop bounded by the `int n` parameter. The
 * row products r*4 and (r+1)*4 are loop-invariant, but nothing proves
 * that the body runs, so they stay in it: hoisted, they would cost an
 * n = 0 call instructions the unoptimized program never executes. The
 * two headers replay both trip counts through the pass-differential. */
double f0(double v0, int n) {
    double a[3][4];
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 4; j++) {
            a[i][j] = v0 * i - j;
        }
    }
    int r = 1;
    double s = 0.5;
    int t = 0;
    while (t < n) {
        s = s * 0.5 + a[r + 1][r * 2] - a[r][3];
        t = t + 1;
    }
    return s + a[r][r];
}
