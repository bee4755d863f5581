/* safegen-fuzz: fn=stencil inputs=0.1,0.7 */

/* A 2-D stencil over a local grid with constant trip counts and
 * [i±1][j±1] subscripts. The row offsets (i-1)*6, i*6 and (i+1)*6 are
 * invariant in the j loop and leave it; the constants leave every loop.
 * The pass-differential replays the hoisted program against the
 * unoptimized one: bit-identical results, and never more executed
 * instructions. */
double stencil(double a, double b) {
    double G[6][6];
    for (int i = 0; i < 6; i++) {
        for (int j = 0; j < 6; j++) {
            G[i][j] = a * i + b * j;
        }
    }
    for (int it = 0; it < 2; it++) {
        for (int i = 1; i < 5; i++) {
            for (int j = 1; j < 5; j++) {
                G[i][j] = 0.125 * (G[i - 1][j] + G[i + 1][j] + G[i][j - 1] + G[i][j + 1])
                    + 0.25 * (G[i - 1][j - 1] + G[i + 1][j + 1]);
            }
        }
    }
    return G[2][3] + G[3][2];
}
