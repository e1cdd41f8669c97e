# Fixture: raw-lambda-predicate fires on every lambda handed to a predicate
# method — a function that warns about it is not exempt — and spares
# expressions.
# expect: raw-lambda-predicate
# expect: raw-lambda-predicate
# expect: raw-lambda-predicate
import warnings


def bad(query):
    return query.where(lambda row: row["age"] > 40)


def also_bad(frame):
    return frame.subset(predicate=lambda f: f["age"] > 40)


def blessed_expression(query, col):
    return query.where(col("age") > 40)


def former_deprecation_shim(query):
    # Once exempt; a warning no longer excuses a raw lambda.
    warnings.warn("deprecated", DeprecationWarning, stacklevel=2)
    return query.where(lambda row: row["age"] > 40)
