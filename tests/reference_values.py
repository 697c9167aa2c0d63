"""Frozen high-precision reference values shared by the test suite.

The 19-digit expansion coefficients, 50-digit singularity constants,
listed sequence prefixes and the hierarchy relative-error grid are
published reference data for the three shipped varieties; tests treat
them as opaque strings and never recompute them.  ``RHO_400`` comes from
the counts-free oracle of ``functional_oracle.py``, which a test reruns at
60 digits only.  The digests of the counts to 2000 were taken from the
one-process recurrence, past the b-files' n=500.
"""

VARIETY_ORDER = ("polya", "identity", "hierarchy")

RHO_50 = {
    "polya": "0.33832185689920769519611262571701705318377460753297",
    "identity": "0.39721309688424004148565407022739873422987370995276",
    "hierarchy": "0.28083266698420035539318755911632333333736599643391",
}

# rho to 400 significant digits from the counts-free functional-equation oracle
# (tests/functional_oracle.py) at 410 digits, agreeing with its run at 430
RHO_400 = {
    "polya": (
        "0.3383218568992076951961126257170170531837746075329677955723037762576660"
        "50189620766563528798367318884453011260439916719656595534846791668071272359290515"
        "58349624121568268286473809648050446439585098015217544206058260941878348645240207"
        "54509715991703803474532925107802103638899829040353504128944293750662430655013056"
        "10312382397215058008780624648411946635953408006577388726663199735597912799255663"
        "0217723750"
    ),
    "identity": (
        "0.3972130968842400414856540702273987342298737099527598603623316724000728"
        "95769821975694883731270565496079083731096636119885790647322404956387326514462681"
        "10709590423242207962851226570928738330650601801569400136184644558247181259329996"
        "26617856190034432718902191710739928802922091603719239295424151264476109613937193"
        "70704394342572539673892083986506878697398361961728857554592814494269535544107313"
        "9156825622"
    ),
    "hierarchy": (
        "0.2808326669842003553931875591163233333373659964339101158104178665861126"
        "64567731152115384510011230183331932362227616945836078183009078244909653446685333"
        "23054022247797910044022371181911553230463215664714669196735523301144952991964655"
        "85052083515263107247315389209658885743849901747337439500018927224560440018933347"
        "58171780838425943853429199324988342830548721666546894203783682148008099568554178"
        "8558426823"
    ),
}

# singular-expansion coefficients t_0 .. t_18, 19 significant digits
T_TABLE = {
    "polya": [
        "1.000000000000000000",
        "-1.559490020374640884",
        "0.8106697078826992796",
        "-0.2854870216128456058",
        "0.1653723657120838943",
        "-0.3424599704021542007",
        "0.3174072259465285628",
        "-0.1077788002916310083",
        "0.06138495705583510410",
        "-0.1952123835975564636",
        "0.2059848312779074186",
        "-0.05272470849819056138",
        "0.01702656875495366861",
        "-0.1523706243663253961",
        "0.1737028832998504627",
        "-0.01447370373952704466",
        "-0.02189951761121556237",
        "-0.1445471935709097045",
        "0.1760771088850177779",
    ],
    "identity": [
        "1.000000000000000000",
        "-1.285158159488538943",
        "0.5505438316333229659",
        "-0.5681159369076463432",
        "0.4261261857916583247",
        "-0.1312888430707878210",
        "0.1224152517144394163",
        "-0.3225499663026797778",
        "0.2539454170234272677",
        "0.04875363678533678081",
        "-0.00002800001023286558041",
        "-0.3631594631270670335",
        "0.2637344037695510765",
        "0.2617035123807709629",
        "-0.1368754575043169801",
        "-0.5927534134371262366",
        "0.3911340105112945142",
        "0.6832510269350502136",
        "-0.3902593892984113718",
    ],
    "hierarchy": [
        "0.6404163334921001777",
        "-0.7316031724762238750",
        "0.03799806716699161541",
        "0.1384103018915147449",
        "-0.07387395031732463851",
        "-0.05428300802019698042",
        "0.03800381072191918081",
        "0.03109684705422999274",
        "-0.02381831461193008886",
        "-0.02078556533052714092",
        "0.01666265537126027377",
        "0.01611178365047090583",
        "-0.01295368177079785790",
        "-0.01338408339711046374",
        "0.01075691931570711729",
        "0.01183388780152404393",
        "-0.009441457380326882677",
        "-0.01084956346194149131",
        "0.008607637481105329431",
    ],
}

# asymptotic-expansion coefficients tau_0 .. tau_18
TAU_TABLE = {
    "polya": [
        "0.7797450101873204419",
        "0.07828911261061096133",
        "0.3929402676631860168",
        "1.537879315978838092",
        "8.200844090435596194",
        "57.29291473494343825",
        "503.0445050262735854",
        "5359.600933884326064",
        "67342.06920114653067",
        "975425.4970695924728",
        "1.599693249293173348e7",
        "2.928225313353392698e8",
        "5.914523441293936053e9",
        "1.305991927898973201e11",
        "3.128498399789526502e12",
        "8.078305401468914384e13",
        "2.236301680891647428e15",
        "6.605960869699262787e16",
        "2.073828085209932615e18",
    ],
    "identity": [
        "0.6425790797442694714",
        "-0.1851197977766337056",
        "-0.4272427290060978745",
        "-2.255455568987212079",
        "-16.60970953335647846",
        "-157.9003693373302727",
        "-1840.110517359351172",
        "-25387.34869954017854",
        "-404610.0663959841556",
        "-7.313377058487246593e6",
        "-1.477949138517813328e8",
        "-3.301794456762036735e9",
        "-8.080229604228356791e10",
        "-2.149826267241085239e12",
        "-6.179075814699061934e13",
        "-1.908151484770832703e15",
        "-6.301063280436556255e16",
        "-2.215767775919040241e18",
        "-8.267080545525264413e19",
    ],
    "hierarchy": [
        "0.3658015862381119375",
        "0.2409833212579280352",
        "0.3678657493849431861",
        "0.9991064877914853523",
        "4.137777553476907813",
        "23.43410248921570084",
        "170.1188811511555370",
        "1514.745295656330186",
        "16007.82637588106931",
        "195812.3506172274875",
        "2.719234685827618831e6",
        "4.222444465223140109e7",
        "7.243861962702191648e8",
        "1.359774926415692519e10",
        "2.770908644498957323e11",
        "6.089496262810801422e12",
        "1.435269254893331074e14",
        "3.610881990157578400e15",
        "9.656755540184967275e16",
    ],
}

# listed sequence prefixes (index 0 upward)
PREFIXES = {
    "polya": [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811],
    "identity": [0, 1, 1, 1, 2, 3, 6, 12, 25, 52, 113, 247, 548, 1226, 2770, 6299],
    "hierarchy": [0, 1, 1, 2, 5, 12, 33, 90, 261, 766, 2312, 7068, 21965, 68954, 218751, 699534],
}

# sha256 of the newline-joined decimal values of counts_for(variety, 2000),
# index 0 upward
COUNTS_2000_SHA256 = {
    "polya": "3495688a4068735f99d355cb61a403686d819e81eb7dcb2b3e01dafb53ee3913",
    "identity": "d584341170ec9d74ff8bdaac72c28d28764e37e33fc6103a97acc7c1a34ccceb",
    "hierarchy": "eb5581b38b788620c9f82fff6e6135afc61ab6d137b845679d6ddbab1b4f9ef8",
}

# hierarchy relative errors |estimate - exact| / exact, orders 1/4/8
ERROR_GRID_SIZES = (10, 20, 50, 100, 200, 500)
ERROR_GRID = {
    1: ["1.391e-2", "2.859e-3", "4.204e-4", "1.027e-4", "2.540e-5", "4.039e-6"],
    4: ["1.039e-3", "3.448e-5", "2.383e-7", "6.872e-9", "2.071e-10", "2.078e-12"],
    8: ["7.722e-4", "3.369e-6", "3.822e-10", "6.195e-13", "1.123e-15", "2.611e-18"],
}

# sha256 of the stdout of each CLI command (arguments after ``treeasym``),
# taken before the Taylor models moved to the scaled variable d/x: the six
# cold-CLI benchmark commands (with ``--size 100``), the JSON expansion that
# prints ``solver_iterations`` and the order-40 error table; and an order-92
# expansion at 30 digits, where the composition guard of T(z^2) and T(z^3)
# is wider than the working precision
CLI_STDOUT_SHA256 = {
    "expand polya --format csv":
        "47db4c8e5ed7176eb89e6d8605cffbc9740f170991e1698a8ee6bdc904d60fd4",
    "expand hierarchy --order 18 --digits 80 --terms 300 --format csv":
        "f5eac0f4f47f370bd23d73aa330139ae1eca56a202d873870f1ff1b0c59fa23d",
    "error-table hierarchy":
        "68fef752ba0ea6423aee90c9f51b8416fb4a49e45b4db38a865a93929117bd76",
    "estimate hierarchy --size 100":
        "fbe4c120bc3bfa3582a5a477c68ffa8986cc2f4aff1c1d716def7c842ed31c7a",
    "counts polya --n 500 --format csv":
        "c9e16cf12779deea2ca4db3b97d6acbb270a836dc58ad777f5ada70b7ea1204c",
    "verify-oeis identity --n 500":
        "712f98e5bd66e5f7e6c4c9543bdd60684672f917b29423efe5407326b0aa8f68",
    "expand polya":
        "412ad2b8c2568ac24a4d6bf2fe72bfd9024f02b93355e7438a24007ecd201baf",
    "error-table polya --sizes 10 --orders 40":
        "91e0d082dded4b8cd4f1cf442a3d3ca3d4d321e7f91c24bc7c1927e61f234030",
    "expand polya --order 92 --digits 30 --format csv":
        "0974892a5c9cf63603035e78c336c22266e98dd0f60b0d4b2b6106feed93ff62",
    # a size below the visible count reach, so the expansion continues the counts
    "estimate hierarchy --size 50 --digits 30":
        "abb4e62b1732318b7c4ca7fbf3fa54d0126953831eb16a70f20f407a03ba5e24",
    # a count reach far past the visible one
    "expand polya --terms 2000 --digits 30 --format csv":
        "1c7475edf146f2d618fed55dcea57b7ae10955c94361f4a04dff6d1b08e91fbc",
    # the whole pipeline at the CLI's MAX_DIGITS; every value certifies 1000 digits
    "expand identity --digits 1000 --terms 2000 --format csv":
        "999205fbf7479cae1aa32ee72d23fc45a79f2ff873ae7c58f005aa8c698aac62",
}

# sha256 of the whole CSV that ``expand polya --order 100 --digits 60 --format csv``
# prints, taken at the same time; the CI's cold order-100 step checks it too
ORDER_100_CSV_SHA256 = "e3980e7f736043a64da3f930e1bb11d59e8c318f28c374d5d276f294f0e56ad3"

# sha256 of the whole CSV that ``expand polya --order 499 --digits 60 --format csv``
# prints, the highest order that count reach 2000 allows (K = 999 in t, R = 503
# in T~); only the CI's cold order-499 step runs it, in about 9 s
ORDER_499_CSV_SHA256 = "4d8ca5f140d5f0e2f632b70e8501865e9e46a05518acd062da5e13773b017815"

# the one stderr line of ``expand polya --digits 100 --terms 60``
TRUNCATION_WARNING_LINE = (
    "warning: relative tail of the highest zeta derivative reaches 8.98e-76; "
    "truncation order 60 is small for 100 digits"
)
